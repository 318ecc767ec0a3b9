//! Cross-crate physical consistency checks on the lithography stack.

use multigrid_schwarz_ilt::fft::Complex;
use multigrid_schwarz_ilt::grid::{Grid, Rect};
use multigrid_schwarz_ilt::layout::{generate_clip, GeneratorConfig};
use multigrid_schwarz_ilt::litho::{
    Corner, KernelSet, LithoBank, LithoSimulator, OpticsConfig, ResistModel,
};

fn bank() -> LithoBank {
    LithoBank::new(OpticsConfig::test_small(), ResistModel::m1_default()).expect("bank")
}

#[test]
fn equation3_scaled_simulation_is_consistent_with_tiles() {
    // Simulating a 2N region at scale 2 (Eq. (3)) must agree with the
    // N-sized tile simulation in the tile's interior, away from wrap-around.
    let bank = bank();
    let n = 64;
    let big = bank.system(2 * n, 2).expect("big system");
    let small = bank.system(n, 1).expect("small system");

    let clip = generate_clip(&GeneratorConfig::with_size(2 * n), 9).to_real();
    let big_aerial = big.aerial(&clip, Corner::Nominal).expect("big sim");

    let tile = clip.crop(Rect::new(32, 32, 32 + n as i64, 32 + n as i64));
    let tile_aerial = small.aerial(&tile, Corner::Nominal).expect("tile sim");

    // Compare deep-interior pixels (16 px from the tile edge keeps the
    // tile's circular-convolution halo out).
    let mut worst: f64 = 0.0;
    for y in 16..n - 16 {
        for x in 16..n - 16 {
            let diff = (tile_aerial.get(x, y) - big_aerial.get(32 + x, 32 + y)).abs();
            worst = worst.max(diff);
        }
    }
    assert!(worst < 0.02, "tile/full simulation mismatch {worst}");
}

#[test]
fn kernel_energy_conservation_under_scaling() {
    // Scaling resamples the spectrum on the same physical support; the DC
    // response (clear-field intensity) must be invariant.
    let set = KernelSet::build(&OpticsConfig::test_small(), false).expect("kernels");
    for s in [1usize, 2, 3] {
        let scaled = set.scaled(s).expect("scaled");
        assert!(
            (scaled.clear_field_intensity() - 1.0).abs() < 1e-9,
            "scale {s}"
        );
    }
}

#[test]
fn aerial_image_is_band_limited() {
    // The image spectrum cannot extend beyond twice the shifted-pupil
    // reach; verify the high-frequency half-band of the image is empty.
    let bank = bank();
    let n = 64;
    let system = bank.system(n, 1).expect("system");
    let mut mask = Grid::new(n, n, 0.0);
    // Harsh input: a checkerboard of single pixels (full-spectrum content).
    for y in 0..n {
        for x in 0..n {
            if (x + y) % 2 == 0 {
                mask.set(x, y, 1.0);
            }
        }
    }
    let aerial = system.aerial(&mask, Corner::Nominal).expect("sim");
    let fft = multigrid_schwarz_ilt::fft::Fft2d::new(n, n).expect("plan");
    let mut spec: Vec<Complex> = aerial
        .as_slice()
        .iter()
        .map(|&v| Complex::from_re(v))
        .collect();
    fft.forward(&mut spec).expect("fft");
    // Image band limit: 2 * (1 + sigma_outer) * pupil_radius ~ 21.6 bins
    // for the test_small config; check bins beyond 28 are empty.
    let limit = 28i64;
    let mut leak: f64 = 0.0;
    for r in 0..n {
        for c in 0..n {
            let fr = multigrid_schwarz_ilt::fft::spectral::signed_index(r, n);
            let fc = multigrid_schwarz_ilt::fft::spectral::signed_index(c, n);
            if fr.abs() > limit && fc.abs() > limit {
                leak = leak.max(spec[r * n + c].abs());
            }
        }
    }
    let dc = spec[0].abs().max(1e-12);
    assert!(leak / dc < 1e-10, "out-of-band leakage {leak} vs DC {dc}");
}

#[test]
fn dose_monotonicity_of_prints() {
    // More dose can only grow the printed region (nominal-focus corners).
    let bank = bank();
    let n = 64;
    let system = bank.system(n, 1).expect("system");
    let mut mask = Grid::new(n, n, 0.0);
    mask.fill_rect(Rect::new(12, 16, 30, 48), 1.0);
    mask.fill_rect(Rect::new(38, 20, 52, 30), 1.0);
    let aerial = system.aerial(&mask, Corner::Nominal).expect("sim");
    let resist = system.resist();
    let lo = resist.print_with_dose(&aerial, 0.95);
    let mid = resist.print_with_dose(&aerial, 1.0);
    let hi = resist.print_with_dose(&aerial, 1.05);
    for i in 0..lo.as_slice().len() {
        assert!(lo.as_slice()[i] <= mid.as_slice()[i]);
        assert!(mid.as_slice()[i] <= hi.as_slice()[i]);
    }
}

#[test]
fn simulator_rejects_foreign_state() {
    // A workspace is compatible by shape, not identity: a same-shaped
    // simulator uses it (and the fields in it) as is, while a differently
    // shaped one replaces it with a fresh arena — counted — rather than
    // computing garbage in stale buffers. The slot count is part of the
    // shape: the nominal kernels pair up and the defocused ones cannot, so
    // a nominal workspace is foreign to a defocused simulator of the same
    // grid and must be replaced before anything reads its fields.
    let bank = bank();
    let sys64 = bank.system(64, 1).expect("system");
    let twin = LithoSimulator::new(
        64,
        KernelSet::build(&OpticsConfig::test_small(), false).expect("k"),
    )
    .expect("sim");
    let defocused = LithoSimulator::new(
        64,
        KernelSet::build(&OpticsConfig::test_small(), true).expect("k"),
    )
    .expect("sim");
    assert_ne!(
        defocused.kernels().slots().len(),
        twin.kernels().slots().len()
    );
    let sys128 = bank.system(128, 2).expect("system");
    let mask = Grid::new(64, 64, 0.5);
    let dldi = Grid::new(64, 64, 1.0);
    let mask128 = generate_clip(&GeneratorConfig::with_size(128), 9).to_real();
    let reallocs = || {
        ilt_telemetry::drain()
            .counters
            .get("litho.workspace.realloc")
            .copied()
    };

    let mut ws = sys64.workspace();
    sys64.simulate_into(&mask, &mut ws).expect("sim");
    ilt_telemetry::set_enabled(true);
    let _ = ilt_telemetry::drain();
    let grad = twin.gradient_into(&mut ws, &dldi).expect("gradient");
    assert_eq!(grad.width(), 64);
    assert_eq!(reallocs(), None, "a same-shaped simulator reuses the arena");

    defocused.gradient_into(&mut ws, &dldi).expect("gradient");
    assert_eq!(reallocs(), Some(1), "the slot count differs");
    assert_eq!(ws.fields().len(), defocused.kernels().slots().len());
    let untouched = ws
        .fields()
        .iter()
        .flatten()
        .all(|z| z.re == 0.0 && z.im == 0.0);
    assert!(untouched, "the nominal fields must not survive the swap");
    assert!(ws.grad().as_slice().iter().all(|&g| g == 0.0));

    sys128.simulate_into(&mask128, &mut ws).expect("sim");
    assert_eq!(reallocs(), Some(1), "the 128-pixel system reshapes");
    ilt_telemetry::set_enabled(false);

    assert_eq!(ws.n(), 128);
    let fresh = sys128.aerial(&mask128, Corner::Nominal).expect("sim");
    // The system simulates in f32 and widens its aerial images exactly.
    let widened = ws.intensity().map(|&i| f64::from(i));
    assert_eq!(fresh.as_slice(), widened.as_slice());
}
