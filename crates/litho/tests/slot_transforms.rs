//! Proves the pairing of kernels into slots reaches the transforms: a pass
//! over the six nominal `m1_default` kernels runs three complex transforms,
//! over the six defocused ones (no provable parity) six.
//!
//! Lives in its own test binary (single test) because it toggles and
//! drains the process-global telemetry collector.

use ilt_grid::Grid;
use ilt_litho::{KernelSet, LithoSimulator, OpticsConfig};

#[test]
fn a_pass_runs_one_complex_transform_per_slot() {
    let cfg = OpticsConfig::m1_default();
    let n = 256;
    let mask = Grid::from_fn(n, n, |x, y| ((x / 9 + y / 14) % 2) as f64);
    let dldi = Grid::from_fn(n, n, |x, y| {
        (x as f64 * 0.1).sin() * (y as f64 * 0.07).cos()
    });
    for (defocused, transforms) in [(false, 3u64), (true, 6)] {
        let kernels = KernelSet::build(&cfg, defocused).unwrap();
        assert_eq!(kernels.len(), 6);
        let sim = LithoSimulator::new(n, kernels).unwrap();
        let mut ws = sim.workspace();

        ilt_telemetry::set_enabled(true);
        let _ = ilt_telemetry::drain(); // discard anything collected so far
        sim.simulate_into(&mask, &mut ws).unwrap();
        let forward_pass = ilt_telemetry::drain();
        sim.gradient_into(&mut ws, &dldi).unwrap();
        let adjoint_pass = ilt_telemetry::drain();
        ilt_telemetry::set_enabled(false);

        let count = |t: &ilt_telemetry::Telemetry, name: &str| t.counters.get(name).copied();
        assert_eq!(count(&forward_pass, "fft.inverse"), Some(transforms));
        assert_eq!(count(&forward_pass, "fft.forward"), None);
        assert_eq!(count(&adjoint_pass, "fft.forward"), Some(transforms));
        assert_eq!(count(&adjoint_pass, "fft.inverse"), None);
    }
}
