//! Per-layer probes: each layer timed from outside, through its public
//! functions only, at the size the workload uses.
//!
//! Every probe is warmed once, then sampled round-robin with the other
//! arms of its group (so slow drift of the machine hits all arms alike)
//! until it has [`TARGET_SAMPLES`] samples or its group's time budget is
//! spent; the median is reported.

use std::time::Instant;

use ilt_core::diff_layouts;
use ilt_fft::{Complex, Fft2d, Rfft2d};
use ilt_grid::{BitGrid, RealGrid, Rect};
use ilt_litho::LithoBank;
use ilt_opt::{PixelIlt, SolveContext, SolveRequest, TileSolver};
use ilt_par::InnerPool;
use ilt_store::{MaskStore, StoreKey};
use ilt_tile::{
    multi_coloring, restrict, AssemblyMode, Partition, StreamingAssembler, TileExecutor,
};

use crate::stats::{line_through, median, residual_share};
use crate::workload::{apply_edit, edit_rect, Flow, Runner};

/// Samples per arm when calls are short enough to afford them.
pub const TARGET_SAMPLES: usize = 101;
/// Samples per arm taken whatever the time budget says.
const MIN_SAMPLES: usize = 3;

/// One timed call. The closure does its own untimed preparation (refilling
/// a buffer the call destroys) and returns the seconds the call itself took.
pub struct Arm<'a> {
    name: &'static str,
    call: Box<dyn FnMut() -> f64 + 'a>,
    samples: Vec<f64>,
}

impl<'a> Arm<'a> {
    pub fn new(name: &'static str, call: impl FnMut() -> f64 + 'a) -> Self {
        Arm {
            name,
            call: Box::new(call),
            samples: Vec::new(),
        }
    }
}

/// Seconds `f` takes.
fn time(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

/// Warms every arm once, then samples them round-robin. Returns each arm's
/// median seconds, in arm order.
pub fn round_robin(arms: &mut [Arm<'_>], budget_s: f64) -> Vec<(&'static str, f64)> {
    for arm in arms.iter_mut() {
        (arm.call)();
    }
    let started = Instant::now();
    for round in 0..TARGET_SAMPLES {
        if round >= MIN_SAMPLES && started.elapsed().as_secs_f64() >= budget_s {
            break;
        }
        for arm in arms.iter_mut() {
            let seconds = (arm.call)();
            arm.samples.push(seconds);
        }
    }
    arms.iter()
        .map(|arm| (arm.name, median(&arm.samples)))
        .collect()
}

fn lookup(results: &[(&'static str, f64)], name: &str) -> f64 {
    results
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("no probe arm {name}"))
        .1
}

/// Bins of the centred `P x P` kernel support on an `n`-point axis, as the
/// simulator lays them out (`-P/2 ..= P/2-1` wrapped), and the stored
/// half-spectrum columns the Hermitian adjoint can touch.
pub fn support_bins(n: usize, support: usize) -> (Vec<usize>, Vec<usize>) {
    let half = support as i64 / 2;
    let bins: Vec<usize> = (0..support as i64)
        .map(|i| (i - half).rem_euclid(n as i64) as usize)
        .collect();
    let stored = n / 2 + 1;
    let mut columns: Vec<usize> = bins
        .iter()
        .flat_map(|&c| [c, (n - c) % n])
        .filter(|&c| c < stored)
        .collect();
    columns.sort_unstable();
    columns.dedup();
    (bins, columns)
}

/// What the FFT and litho probes measured, in seconds.
pub struct LithoProbe {
    pub rfft2d_fwd: f64,
    pub c2c_inv_support: f64,
    pub c2c_fwd_support: f64,
    pub rfft2d_inv_support: f64,
    pub simulate: f64,
    pub gradient: f64,
    pub simulate_two_threads: f64,
    pub kernels: usize,
}

impl LithoProbe {
    /// FFT calls one `simulate_into` makes on the real-Hermitian path: one
    /// real forward transform of the mask plus one sparse complex inverse
    /// per kernel.
    pub fn simulate_fft_seconds(&self) -> f64 {
        self.rfft2d_fwd + self.kernels as f64 * self.c2c_inv_support
    }
}

/// Times the four FFT calls the litho layer makes and the two litho calls
/// the solvers make, on an `n x n` system at `scale`, interleaved.
pub fn litho_and_fft(bank: &LithoBank, n: usize, scale: usize, mask: &RealGrid) -> LithoProbe {
    let system = bank.system(n, scale).expect("solve-grid system");
    let mut two_threads = bank.system(n, scale).expect("solve-grid system");
    two_threads.set_inner_pool(InnerPool::new(2));
    let kernels = system.simulator().kernels().len();
    let support = system.simulator().kernels().support();
    let (bins, columns) = support_bins(n, support);
    let serial = InnerPool::serial();

    let fft = Fft2d::new(n, n).expect("power-of-two grid");
    let rfft = Rfft2d::new(n).expect("power-of-two grid");
    // Spectrum-shaped inputs with order-one values on the support and
    // zeros elsewhere, as the simulator feeds them; transforms run in
    // place, so each sample starts from a fresh copy.
    let mut field_template = vec![Complex::ZERO; n * n];
    for &r in &bins {
        for &c in &bins {
            field_template[r * n + c] = Complex::new(0.5 + (r % 7) as f64, 0.25 - (c % 5) as f64);
        }
    }
    let dense_template: Vec<Complex> = mask
        .as_slice()
        .iter()
        .enumerate()
        .map(|(i, &m)| Complex::new(m, 0.001 * (i % 13) as f64))
        .collect();
    let mut half_template = vec![Complex::ZERO; rfft.spectrum_len()];
    for &c in &columns {
        for &r in &bins {
            half_template[c * n + r] = Complex::new(1.0 + (r % 3) as f64, 0.5);
        }
    }
    let dldi = mask.map(|&m| m - 0.5);

    let mut field = field_template.clone();
    let mut dense = dense_template.clone();
    let mut half = half_template.clone();
    let mut half_out = vec![Complex::ZERO; rfft.spectrum_len()];
    let mut scratch_a = vec![Complex::ZERO; rfft.spectrum_len()];
    let mut scratch_b = vec![Complex::ZERO; rfft.spectrum_len()];
    let mut real_out = vec![0.0; n * n];
    // One workspace for both litho arms, gradient right after simulate in
    // every round: the adjoint reads the fields the forward pass just
    // wrote, as it does inside a solver iteration.
    let ws = std::cell::RefCell::new(system.workspace());
    let mut ws_two = two_threads.workspace();

    let mut arms = [
        Arm::new("rfft2d_fwd", || {
            time(|| {
                rfft.forward(mask.as_slice(), &mut half_out, &mut scratch_a, &serial)
                    .expect("buffers sized by the plan");
            })
        }),
        Arm::new("c2c_inv_support", || {
            field.copy_from_slice(&field_template);
            time(|| {
                fft.inverse_support(&mut field, &bins)
                    .expect("buffer sized by the plan");
            })
        }),
        Arm::new("c2c_fwd_support", || {
            dense.copy_from_slice(&dense_template);
            time(|| {
                fft.forward_support_transposed(&mut dense, &bins, &serial)
                    .expect("buffer sized by the plan");
            })
        }),
        Arm::new("rfft2d_inv_support", || {
            half.copy_from_slice(&half_template);
            time(|| {
                rfft.inverse_support_scaled(
                    &mut half,
                    &mut real_out,
                    &mut scratch_b,
                    Some(&columns),
                    1.0,
                    &serial,
                )
                .expect("buffers sized by the plan");
            })
        }),
        Arm::new("simulate", || {
            // The arms before this one emptied the caches of the system's
            // kernels and workspace; a solver iteration finds them warm.
            system
                .simulate_into(mask, &mut ws.borrow_mut())
                .expect("mask matches the system");
            time(|| {
                system
                    .simulate_into(mask, &mut ws.borrow_mut())
                    .expect("mask matches the system");
            })
        }),
        Arm::new("gradient", || {
            time(|| {
                system
                    .gradient_into(&mut ws.borrow_mut(), &dldi)
                    .expect("dL/dI matches the system");
            })
        }),
        Arm::new("simulate_two_threads", || {
            time(|| {
                two_threads
                    .simulate_into(mask, &mut ws_two)
                    .expect("mask matches the system");
            })
        }),
    ];
    // Seven arms; at 512² a round costs ~0.1 s, at 256² ~0.025 s.
    let results = round_robin(&mut arms, 1.5);
    LithoProbe {
        rfft2d_fwd: lookup(&results, "rfft2d_fwd"),
        c2c_inv_support: lookup(&results, "c2c_inv_support"),
        c2c_fwd_support: lookup(&results, "c2c_fwd_support"),
        rfft2d_inv_support: lookup(&results, "rfft2d_inv_support"),
        simulate: lookup(&results, "simulate"),
        gradient: lookup(&results, "gradient"),
        simulate_two_threads: lookup(&results, "simulate_two_threads"),
        kernels,
    }
}

/// Per-iteration and fixed per-solve seconds of one kind of solve.
#[derive(Debug, Clone, Copy)]
pub struct SolveCost {
    pub per_iteration: f64,
    pub fixed: f64,
}

impl SolveCost {
    /// Seconds the model gives a solve of `iterations`.
    pub fn predict(&self, iterations: usize) -> f64 {
        self.fixed + self.per_iteration * iterations as f64
    }
}

/// Iteration budgets the warm solver is timed at.
const WARM_BUDGETS: (usize, usize) = (2, 6);
/// Iteration budgets the cold solver is timed at. Multiples of five, so
/// its 20% half-resolution share is a whole iteration count at both and
/// the cost stays linear in the budget.
const COLD_BUDGETS: (usize, usize) = (5, 10);

/// Times `PixelIlt::new()` at two budgets on the solve grid: warm solves
/// as the fine Schwarz stages issue them (full resolution throughout) and
/// cold solves as the full-chip flow and the coarse level issue them
/// (first fifth of the budget at half resolution). Slope and intercept of
/// the line through the two medians are the per-iteration and fixed costs.
pub fn solver(
    bank: &LithoBank,
    n: usize,
    scale: usize,
    target: &RealGrid,
    fine_lr_scale: f64,
) -> (SolveCost, SolveCost) {
    let solver = PixelIlt::new();
    let ctx = SolveContext { bank, n, scale };
    let request = |iterations: usize, warm: bool| {
        let mut request = SolveRequest::new(target, target, iterations);
        if warm {
            request.lr_scale = fine_lr_scale;
            request.warm = true;
        }
        time(|| {
            std::hint::black_box(solver.solve(&ctx, &request).expect("probe solve"));
        })
    };
    let mut arms = [
        Arm::new("warm_short", || request(WARM_BUDGETS.0, true)),
        Arm::new("warm_long", || request(WARM_BUDGETS.1, true)),
        Arm::new("cold_short", || request(COLD_BUDGETS.0, false)),
        Arm::new("cold_long", || request(COLD_BUDGETS.1, false)),
    ];
    // A round is 23 iterations: ~0.25 s at 256², ~1 s at 512².
    let results = round_robin(&mut arms, 2.0);
    let fit = |budgets: (usize, usize), short: &str, long: &str| {
        let (per_iteration, fixed) = line_through(
            (budgets.0 as f64, lookup(&results, short)),
            (budgets.1 as f64, lookup(&results, long)),
        );
        SolveCost {
            per_iteration,
            fixed,
        }
    };
    (
        fit(WARM_BUDGETS, "warm_short", "warm_long"),
        fit(COLD_BUDGETS, "cold_short", "cold_long"),
    )
}

/// What the tile, store and build probes measured, in seconds.
pub struct PlumbingProbe {
    pub assemble: f64,
    pub restrict: f64,
    pub partition: f64,
    pub dispatch: f64,
    pub diff_layouts: f64,
    pub store_get: f64,
    pub store_put: f64,
    pub bank_build: f64,
    pub solve_system_build: f64,
    pub inspection_system_build: f64,
}

/// Times the layers between the solves: partitioning, restriction,
/// streamed assembly and executor dispatch on the workload's partition,
/// `diff_layouts` on one of its edits, a private mask store, and the
/// kernel-bank and system builds a session and every tile solve pay.
pub fn plumbing(runner: &Runner<'_>, base: &BitGrid, seed: u64) -> PlumbingProbe {
    let config = &runner.config;
    let partition = &runner.partition;
    let tiles = partition.tiles().len();
    let layout = base.to_real();
    let crops: Vec<RealGrid> = partition
        .tiles()
        .iter()
        .map(|t| restrict(&layout, t))
        .collect();
    let mode = AssemblyMode::weighted_default(partition);
    let edited = apply_edit(base, edit_rect(seed, 0, config));
    let executor = TileExecutor::new(runner.workload.workers);
    let (n, scale) = runner.workload.solve_grid(config);
    let bank = runner.session.bank();

    // Sixteen tile-sized masks in a 64 MiB private store: every get hits
    // and no put evicts.
    let store = MaskStore::new(64 << 20, None);
    let tile_mask = &crops[0];
    let key = |i: usize| StoreKey::new(i as u64, 0, "probe");
    for i in 0..16 {
        store.put(key(i), tile_mask.clone());
    }
    let (mut next_get, mut next_put) = (0usize, 0usize);

    let mut arms = [
        Arm::new("assemble", || {
            time(|| {
                let mut assembler = StreamingAssembler::new(partition, mode);
                let order = assembler.canonical_order().to_vec();
                for i in order {
                    assembler.push(i, &crops[i]).expect("canonical order");
                }
                std::hint::black_box(assembler.finish().expect("partition of unity"));
            })
        }),
        Arm::new("restrict", || {
            time(|| {
                std::hint::black_box(restrict(&layout, partition.tile(tiles / 2)));
            })
        }),
        Arm::new("partition", || {
            time(|| {
                let p = Partition::new(config.clip, config.clip, config.partition)
                    .expect("workload geometry");
                std::hint::black_box((multi_coloring(&p).count(), p.stitch_lines().len()));
            })
        }),
        Arm::new("dispatch", || {
            time(|| {
                std::hint::black_box(executor.run(tiles, |i| i));
            })
        }),
        Arm::new("diff_layouts", || {
            time(|| {
                std::hint::black_box(diff_layouts(partition, base, &edited));
            })
        }),
        Arm::new("store_get", || {
            next_get = (next_get + 1) % 16;
            time(|| {
                std::hint::black_box(store.get(&key(next_get)));
            })
        }),
        Arm::new("store_put", || {
            next_put = (next_put + 1) % 16;
            let mask = tile_mask.clone();
            time(|| {
                store.put(key(next_put), mask);
            })
        }),
        Arm::new("solve_system_build", || {
            time(|| {
                std::hint::black_box(bank.system(n, scale).expect("solve-grid system"));
            })
        }),
    ];
    let results = round_robin(&mut arms, 1.0);

    // The two builds a session pays once: few samples, they are slow.
    let mut builds = [
        Arm::new("bank_build", || {
            time(|| {
                std::hint::black_box(
                    LithoBank::new(config.optics, config.resist).expect("kernel bank"),
                );
            })
        }),
        Arm::new("inspection_system_build", || {
            time(|| {
                std::hint::black_box(
                    bank.system(config.clip, config.inspection_scale())
                        .expect("inspection system"),
                );
            })
        }),
    ];
    let build_results = round_robin(&mut builds, 0.5);

    PlumbingProbe {
        assemble: lookup(&results, "assemble"),
        restrict: lookup(&results, "restrict"),
        partition: lookup(&results, "partition"),
        dispatch: lookup(&results, "dispatch"),
        diff_layouts: lookup(&results, "diff_layouts"),
        store_get: lookup(&results, "store_get"),
        store_put: lookup(&results, "store_put"),
        bank_build: lookup(&build_results, "bank_build"),
        solve_system_build: lookup(&results, "solve_system_build"),
        inspection_system_build: lookup(&build_results, "inspection_system_build"),
    }
}

/// The solve-grid crop of a clip: the whole clip for the full-chip flow,
/// its top-left tile otherwise.
pub fn solve_grid_crop(runner: &Runner<'_>, clip: &BitGrid) -> RealGrid {
    let (n, _) = runner.workload.solve_grid(&runner.config);
    clip.to_real()
        .crop(Rect::from_origin_size(0, 0, n as i64, n as i64))
}

/// Which solve kind dominates the workload's operations.
pub fn dominant_cost(flow: Flow, warm: SolveCost, cold: SolveCost) -> SolveCost {
    match flow {
        Flow::FullChip => cold,
        Flow::Ours | Flow::Eco => warm,
    }
}

/// Share of the modelled solves' measured time that `cost` leaves
/// unexplained: `1 - Σ (fixed + iterations × per-iteration) / Σ measured`.
pub fn tile_solve_residual(modelled: &[(usize, f64)], cost: SolveCost) -> f64 {
    let measured: f64 = modelled.iter().map(|&(_, seconds)| seconds).sum();
    let explained: f64 = modelled.iter().map(|&(its, _)| cost.predict(its)).sum();
    residual_share(measured, explained)
}

/// Flops of an `n x n` real-input 2-D FFT by the usual `2.5 N log2 N`
/// count (`N = n²`), over `seconds`, in Gflop/s. Computed, not measured.
pub fn rfft_gflops(n: usize, seconds: f64) -> f64 {
    let points = (n * n) as f64;
    2.5 * points * points.log2() / seconds / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn support_bins_wrap_around_the_origin() {
        let (bins, columns) = support_bins(16, 5);
        assert_eq!(bins, [14, 15, 0, 1, 2]);
        // Stored columns 0..=8: 0, 1, 2 directly; 14 and 15 via their
        // reflections 2 and 1.
        assert_eq!(columns, [0, 1, 2]);
        let (bins, columns) = support_bins(8, 4);
        assert_eq!(bins, [6, 7, 0, 1]);
        assert_eq!(columns, [0, 1, 2]);
    }

    #[test]
    fn round_robin_interleaves_and_reports_medians() {
        let order = std::cell::RefCell::new(Vec::new());
        let mut arms = [
            Arm::new("a", || {
                order.borrow_mut().push('a');
                1.0
            }),
            Arm::new("b", || {
                order.borrow_mut().push('b');
                2.0
            }),
        ];
        // Zero budget: the warm-up call plus the minimum sample count.
        let results = round_robin(&mut arms, 0.0);
        assert_eq!(results, [("a", 1.0), ("b", 2.0)]);
        let order = order.borrow();
        assert_eq!(order.len(), 2 * (1 + MIN_SAMPLES));
        assert_eq!(order[..6], ['a', 'b', 'a', 'b', 'a', 'b']);
    }

    #[test]
    fn solve_model_and_its_residual() {
        let cost = SolveCost {
            per_iteration: 0.01,
            fixed: 0.02,
        };
        assert!((cost.predict(20) - 0.22).abs() < 1e-12);
        // Two solves of 20 iterations measured at 0.25 s each: the model
        // explains 0.44 of 0.50.
        let residual = tile_solve_residual(&[(20, 0.25), (20, 0.25)], cost);
        assert!((residual - 0.12).abs() < 1e-12);
        let warm = SolveCost {
            per_iteration: 1.0,
            fixed: 0.0,
        };
        assert_eq!(dominant_cost(Flow::FullChip, warm, cost).fixed, 0.02);
        assert_eq!(dominant_cost(Flow::Eco, warm, cost).per_iteration, 1.0);
    }

    #[test]
    fn gflops_use_the_real_transform_count() {
        // n = 4: N = 16 points, 2.5 * 16 * 4 = 160 flops.
        assert!((rfft_gflops(4, 160e-9) - 1.0).abs() < 1e-12);
    }
}
