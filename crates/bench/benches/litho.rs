//! Benchmarks of the lithography substrate: kernel construction, forward
//! aerial imaging (Eq. (2)), the scaled large-area variant (Eq. (3)), and
//! the adjoint gradient — the three costs that dominate every flow.

use criterion::{criterion_group, criterion_main, Criterion};
use ilt_grid::{Grid, RealGrid};
use ilt_layout::{generate_clip, GeneratorConfig};
use ilt_litho::{KernelSet, LithoBank, OpticsConfig, ResistModel};
use ilt_opt::{evaluate_loss_into, LossEval};

fn mask(n: usize) -> RealGrid {
    generate_clip(&GeneratorConfig::with_size(n), 5).to_real()
}

fn bench_kernel_build(c: &mut Criterion) {
    let cfg = OpticsConfig::test_small();
    c.bench_function("kernels_build_test_small", |b| {
        b.iter(|| KernelSet::build(&cfg, false).expect("kernels"))
    });
    let set = KernelSet::build(&cfg, false).expect("kernels");
    c.bench_function("kernels_scale_s2", |b| {
        b.iter(|| set.scaled(2).expect("scale"))
    });
}

fn bench_simulation(c: &mut Criterion) {
    let bank = LithoBank::new(OpticsConfig::m1_default(), ResistModel::m1_default()).expect("bank");
    let n = bank.config().base_n;
    let tile_mask = mask(n);
    let system = bank.system(n, 1).expect("system");
    c.bench_function("aerial_image_tile_128", |b| {
        b.iter(|| {
            system
                .aerial(&tile_mask, ilt_litho::Corner::Nominal)
                .expect("sim")
        })
    });

    // Eq. (3): full-clip simulation at 2x region scale.
    let clip_mask = mask(2 * n);
    let inspection = bank.system(2 * n, 2).expect("system");
    c.bench_function("aerial_image_clip_256_s2", |b| {
        b.iter(|| {
            inspection
                .aerial(&clip_mask, ilt_litho::Corner::Nominal)
                .expect("sim")
        })
    });

    // Eq. (9): coarse-grid simulation of a downsampled clip.
    let coarse_mask = ilt_grid::resample::downsample(&clip_mask, 2);
    let coarse = bank.system(n, 2).expect("system");
    c.bench_function("aerial_image_coarse_128_s2", |b| {
        b.iter(|| {
            coarse
                .aerial(&coarse_mask, ilt_litho::Corner::Nominal)
                .expect("sim")
        })
    });

    // One full forward + adjoint pass (the per-iteration ILT cost).
    let target = Grid::from_fn(n, n, |x, y| tile_mask.get(x, y));
    let mut ws = system.workspace();
    let mut eval = LossEval {
        value: 0.0,
        dldi: Grid::new(n, n, 0.0),
    };
    c.bench_function("ilt_iteration_forward_adjoint_128", |b| {
        b.iter(|| {
            system.simulate_into(&tile_mask, &mut ws).expect("sim");
            evaluate_loss_into(system.resist(), ws.intensity(), &target, &mut eval);
            system.gradient_into(&mut ws, &eval.dldi).expect("grad");
        })
    });
}

fn config() -> Criterion {
    Criterion::default().sample_size(10)
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_kernel_build, bench_simulation
}
criterion_main!(benches);
