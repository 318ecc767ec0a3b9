//! Deterministic fault injection for the multigrid-Schwarz ILT stack.
//!
//! Production code sprinkles named *injection points* (see [`points`]) at the
//! places where real systems fail: tile solves, request parsing, queue
//! admission, file IO. Each point is a single [`should_fire`] call that is a
//! relaxed atomic load when no faults are configured, so shipping the hooks
//! costs nothing.
//!
//! Faults are armed through the `ILT_FAULTS` environment variable (mirroring
//! the `ILT_TRACE` convention) or programmatically via [`configure`]. The
//! grammar is a comma-separated list of specs:
//!
//! ```text
//! ILT_FAULTS=point:rate:seed[:limit[:skip]],...
//!
//! point  registered injection point name, e.g. tile.panic
//! rate   firing probability in [0, 1]
//! seed   u64 seed; decisions are a pure function of (seed, invocation #)
//! limit  optional maximum number of fires (omit or 0 = unlimited)
//! skip   optional number of leading invocations that never fire
//! ```
//!
//! `tile.panic:1.0:42:2:1` reads "after letting the first invocation pass,
//! fire on every invocation until two fires have happened" — exactly the
//! shape needed to fail one fine-stage tile (both retry attempts) while
//! leaving the coarse stage untouched.
//!
//! Decisions are deterministic: each point keeps an invocation counter and
//! hashes `(seed, invocation)` through a splitmix64 finalizer, so a fixed
//! seed and a fixed execution order (e.g. the default sequential executor)
//! reproduce the same fault pattern run after run.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, Once};

/// Registered injection point names. Keeping them in one place lets the
/// fault-matrix test sweep every point without string coupling.
pub mod points {
    /// Panics a tile job attempt inside the executor's recovery wrapper.
    pub const TILE_PANIC: &str = "tile.panic";
    /// Sleeps a tile job attempt (stragglers, deadline pressure).
    pub const TILE_SLOW: &str = "tile.slow";
    /// Forces the serve job queue to report `Full` on submit.
    pub const SERVE_QUEUE_FULL: &str = "serve.queue_full";
    /// Forces a job's deadline to be already expired at pickup.
    pub const SERVE_DEADLINE: &str = "serve.deadline";
    /// Drops the connection instead of writing a response.
    pub const SERVE_CONN_DROP: &str = "serve.conn_drop";
    /// Truncates a request body mid-read (client died / short write).
    pub const SERVE_BODY_TRUNCATE: &str = "serve.body_truncate";
    /// Inflates the declared body size past the server limit.
    pub const SERVE_BODY_OVERSIZE: &str = "serve.body_oversize";
    /// Fails JSON parsing at entry (corrupt payload on the wire).
    pub const JSON_INVALID: &str = "json.invalid";

    /// Every registered point, for exhaustive fault-matrix sweeps.
    pub const ALL: &[&str] = &[
        TILE_PANIC,
        TILE_SLOW,
        SERVE_QUEUE_FULL,
        SERVE_DEADLINE,
        SERVE_CONN_DROP,
        SERVE_BODY_TRUNCATE,
        SERVE_BODY_OVERSIZE,
        JSON_INVALID,
    ];
}

/// Marker prefix for panics raised *by* the injector, so test harnesses and
/// [`quiet_injected_panics`] can tell them apart from real bugs.
pub const INJECTED_PANIC_PREFIX: &str = "injected fault:";

/// One armed fault: which point, how often, and over which window.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Registered injection point name.
    pub point: String,
    /// Firing probability in `[0, 1]`.
    pub rate: f64,
    /// Seed for the per-invocation firing decision.
    pub seed: u64,
    /// Maximum number of fires; `None` means unlimited.
    pub limit: Option<u64>,
    /// Number of leading invocations that never fire.
    pub skip: u64,
}

impl FaultSpec {
    /// An always-firing spec with no window, handy in tests.
    pub fn always(point: &str, seed: u64) -> Self {
        FaultSpec {
            point: point.to_string(),
            rate: 1.0,
            seed,
            limit: None,
            skip: 0,
        }
    }

    /// Parses a single `point:rate:seed[:limit[:skip]]` spec, or describes
    /// the malformed field.
    fn parse(text: &str) -> Result<FaultSpec, String> {
        let parts: Vec<&str> = text.split(':').collect();
        if parts.len() < 3 || parts.len() > 5 {
            return Err(format!(
                "fault spec {text:?}: expected point:rate:seed[:limit[:skip]]"
            ));
        }
        let point = parts[0].trim();
        if point.is_empty() {
            return Err(format!("fault spec {text:?}: empty point name"));
        }
        if !points::ALL.contains(&point) {
            return Err(format!(
                "fault spec {text:?}: unknown point {point:?} (known: {})",
                points::ALL.join(", ")
            ));
        }
        let rate: f64 = parts[1]
            .trim()
            .parse()
            .map_err(|_| format!("fault spec {text:?}: rate {:?} is not a number", parts[1]))?;
        if !(0.0..=1.0).contains(&rate) {
            return Err(format!("fault spec {text:?}: rate {rate} outside [0, 1]"));
        }
        let seed: u64 = parts[2]
            .trim()
            .parse()
            .map_err(|_| format!("fault spec {text:?}: seed {:?} is not a u64", parts[2]))?;
        let limit = match parts.get(3) {
            None => None,
            Some(raw) => {
                let n: u64 = raw
                    .trim()
                    .parse()
                    .map_err(|_| format!("fault spec {text:?}: limit {raw:?} is not a u64"))?;
                if n == 0 {
                    None
                } else {
                    Some(n)
                }
            }
        };
        let skip = match parts.get(4) {
            None => 0,
            Some(raw) => raw
                .trim()
                .parse()
                .map_err(|_| format!("fault spec {text:?}: skip {raw:?} is not a u64"))?,
        };
        Ok(FaultSpec {
            point: point.to_string(),
            rate,
            seed,
            limit,
            skip,
        })
    }
}

#[derive(Debug)]
struct PointState {
    spec: FaultSpec,
    invocations: u64,
    fired: u64,
}

static ACTIVE: AtomicBool = AtomicBool::new(false);
static REGISTRY: Mutex<Vec<PointState>> = Mutex::new(Vec::new());

fn registry() -> std::sync::MutexGuard<'static, Vec<PointState>> {
    REGISTRY.lock().unwrap_or_else(|e| e.into_inner())
}

/// Arms the given fault specs, replacing any previous configuration and
/// resetting all invocation counters. An empty list disarms everything.
pub fn configure(specs: Vec<FaultSpec>) {
    let mut reg = registry();
    reg.clear();
    for spec in specs {
        reg.push(PointState {
            spec,
            invocations: 0,
            fired: 0,
        });
    }
    ACTIVE.store(!reg.is_empty(), Ordering::Release);
}

/// Disarms all faults and resets counters.
pub fn clear() {
    configure(Vec::new());
}

/// Reads `ILT_FAULTS` and arms any well-formed specs. Malformed specs are
/// reported on stderr and skipped (a typo in a fault drill should degrade
/// the drill, not kill the process under test). Returns the number of armed
/// specs.
pub fn configure_from_env() -> usize {
    let Ok(raw) = std::env::var("ILT_FAULTS") else {
        return 0;
    };
    let mut specs = Vec::new();
    for part in raw.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        match FaultSpec::parse(part) {
            Ok(spec) => specs.push(spec),
            Err(why) => eprintln!("warning: ignoring ILT_FAULTS entry: {why}"),
        }
    }
    let count = specs.len();
    configure(specs);
    if count > 0 {
        quiet_injected_panics();
    }
    count
}

/// True when at least one fault spec is armed. This is the fast path every
/// injection point takes first, so unconfigured builds pay one relaxed load.
#[inline]
fn active() -> bool {
    ACTIVE.load(Ordering::Acquire)
}

/// splitmix64 finalizer: a cheap, well-mixed hash for firing decisions.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Whether the named injection point should fire on this invocation.
///
/// Each call counts as one invocation of `point` (whether or not it fires),
/// so the decision sequence is a pure function of the configured seed and
/// the process's invocation order.
pub fn should_fire(point: &str) -> bool {
    if !active() {
        return false;
    }
    let mut reg = registry();
    let Some(state) = reg.iter_mut().find(|s| s.spec.point == point) else {
        return false;
    };
    state.invocations += 1;
    if state.invocations <= state.spec.skip {
        return false;
    }
    if let Some(limit) = state.spec.limit {
        if state.fired >= limit {
            return false;
        }
    }
    let draw = mix(state.spec.seed ^ state.invocations) >> 11;
    let unit = draw as f64 / (1u64 << 53) as f64;
    if unit < state.spec.rate {
        state.fired += 1;
        true
    } else {
        false
    }
}

/// Number of times `point` has fired since the last [`configure`].
pub fn fired_count(point: &str) -> u64 {
    registry()
        .iter()
        .find(|s| s.spec.point == point)
        .map_or(0, |s| s.fired)
}

/// Installs (once) a panic hook that suppresses the default backtrace spew
/// for panics whose payload starts with [`INJECTED_PANIC_PREFIX`]. Real
/// panics still reach the previous hook. Fault drills inject panics on
/// purpose; their backtraces would otherwise drown the logs.
pub fn quiet_injected_panics() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .is_some_and(|m| m.starts_with(INJECTED_PANIC_PREFIX));
            if !injected {
                previous(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global; serialize tests that arm it.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn parse_full_grammar() {
        let spec = FaultSpec::parse("tile.panic:0.5:42:3:7").unwrap();
        assert_eq!(spec.point, "tile.panic");
        assert_eq!(spec.rate, 0.5);
        assert_eq!(spec.seed, 42);
        assert_eq!(spec.limit, Some(3));
        assert_eq!(spec.skip, 7);
        let spec = FaultSpec::parse("json.invalid:1:9").unwrap();
        assert_eq!(spec.limit, None);
        assert_eq!(spec.skip, 0);
        // limit 0 means unlimited.
        assert_eq!(FaultSpec::parse("tile.slow:1:9:0").unwrap().limit, None);
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "",
            "tile.panic",
            "tile.panic:1.0",
            "nope.nope:1.0:1",
            "tile.panic:2.0:1",
            "tile.panic:-0.1:1",
            "tile.panic:x:1",
            "tile.panic:1.0:x",
            "tile.panic:1.0:1:x",
            "tile.panic:1.0:1:1:x",
            "tile.panic:1.0:1:1:1:1",
        ] {
            assert!(FaultSpec::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn unconfigured_points_never_fire() {
        let _g = lock();
        clear();
        assert!(!active());
        assert!(!should_fire(points::TILE_PANIC));
        assert_eq!(fired_count(points::TILE_PANIC), 0);
    }

    #[test]
    fn rate_one_always_fires_and_rate_zero_never_fires() {
        let _g = lock();
        configure(vec![
            FaultSpec::always(points::TILE_PANIC, 1),
            FaultSpec {
                rate: 0.0,
                ..FaultSpec::always(points::TILE_SLOW, 1)
            },
        ]);
        for _ in 0..32 {
            assert!(should_fire(points::TILE_PANIC));
            assert!(!should_fire(points::TILE_SLOW));
        }
        assert_eq!(fired_count(points::TILE_PANIC), 32);
        assert_eq!(fired_count(points::TILE_SLOW), 0);
        clear();
    }

    #[test]
    fn decisions_are_deterministic_per_seed() {
        let _g = lock();
        let run = |seed: u64| -> Vec<bool> {
            configure(vec![FaultSpec {
                rate: 0.5,
                ..FaultSpec::always(points::JSON_INVALID, seed)
            }]);
            (0..64).map(|_| should_fire(points::JSON_INVALID)).collect()
        };
        let a = run(7);
        let b = run(7);
        let c = run(8);
        assert_eq!(a, b);
        assert_ne!(a, c, "different seeds should give different patterns");
        let fires = a.iter().filter(|f| **f).count();
        assert!(
            (8..=56).contains(&fires),
            "rate 0.5 fired {fires}/64 times; hash badly skewed"
        );
        clear();
    }

    #[test]
    fn limit_and_skip_bound_the_window() {
        let _g = lock();
        configure(vec![FaultSpec {
            limit: Some(2),
            skip: 1,
            ..FaultSpec::always(points::TILE_PANIC, 3)
        }]);
        let pattern: Vec<bool> = (0..5).map(|_| should_fire(points::TILE_PANIC)).collect();
        assert_eq!(pattern, vec![false, true, true, false, false]);
        assert_eq!(fired_count(points::TILE_PANIC), 2);
        clear();
    }

    #[test]
    fn configure_resets_counters() {
        let _g = lock();
        configure(vec![FaultSpec {
            limit: Some(1),
            ..FaultSpec::always(points::TILE_PANIC, 3)
        }]);
        assert!(should_fire(points::TILE_PANIC));
        assert!(!should_fire(points::TILE_PANIC));
        configure(vec![FaultSpec {
            limit: Some(1),
            ..FaultSpec::always(points::TILE_PANIC, 3)
        }]);
        assert!(should_fire(points::TILE_PANIC), "counters should reset");
        clear();
    }
}
