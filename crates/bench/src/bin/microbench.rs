//! `microbench`: fast-path micro-benchmarks for the litho hot loop.
//!
//! Times the building blocks the solvers spend their iterations in — the
//! real-input half-spectrum transforms (`rfft_*`), the sparse-support
//! complex inverse, the Hopkins forward/adjoint simulator passes, and a
//! full pixel-ILT iteration (`simulate_into` / loss / `gradient_into` with
//! the `ILT_INNER_THREADS` budget) — at the grid sizes of the configured
//! experiment scale (`base_n` for the simulator benches, plus the full
//! `clip` edge for the large transform). These are smoke-level timings at
//! the bench scale; per-layer speed at the sizes that matter is measured
//! by `benchmark/ --trace 1` (`fft.*`, `litho.simulate_us`,
//! `opt.pixel_iter_ms`).
//!
//! The `microbench` report section carries the iteration cost together
//! with the autotuned FFT plan parameters. A final three-way A/B re-runs
//! the iteration with a span per iteration: recorder off, recorder on,
//! and recorder + full `ilt-prof` layer (CPU sampler plus allocation
//! tracking). The summary carries
//! `obs_overhead_ratio` (recorder vs off; CI asserts <= 2%) and
//! `obs_profile_overhead_ratio` (everything on vs off; CI asserts <= 5%,
//! the bar for leaving profiling enabled in production).
//!
//! Each benchmark is wrapped in a named flow span, so the emitted
//! `report.json` (schema `ilt-report/v2`) carries one flow per benchmark
//! and can be gated against `results/baselines/microbench.json` with the
//! `report_diff` bin. Telemetry is force-enabled so the flows are recorded
//! even without `ILT_TRACE=1`. A compact single-point summary (schema
//! `ilt-bench-trajectory/v1`) is also written for the `BENCH_*` trajectory
//! files under `results/`.
//!
//! ```text
//! ILT_SCALE=tiny ILT_INNER_THREADS=4 cargo run --release -p ilt-bench --bin microbench
//! ```

use std::fmt::Write as _;

use ilt_bench::HarnessOptions;
use ilt_fft::{spectral, Complex, Fft2d, Rfft2d};
use ilt_grid::Grid;
use ilt_opt::{evaluate_loss_into, LossEval};
use ilt_par::InnerPool;
use ilt_telemetry as tele;

// The tracking allocator must be the global allocator for the
// recorder+profiler overhead arm to measure real allocation-counting cost
// (disabled, it adds one relaxed load per allocation).
#[global_allocator]
static GLOBAL: ilt_prof::TrackingAlloc = ilt_prof::TrackingAlloc::new();

/// Deterministic xorshift values in [-1, 1) so benchmark buffers are
/// reproducible and free of denormal-heavy patterns.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
    }
}

/// One benchmark result: `iters` timed repetitions in `seconds` total.
struct BenchPoint {
    name: String,
    iters: usize,
    seconds: f64,
}

impl BenchPoint {
    fn us_per_iter(&self) -> f64 {
        self.seconds / self.iters as f64 * 1e6
    }
}

/// Runs `f` twice untimed (warm-up), then `iters` times inside a flow span
/// named `name`, and returns the timed total.
fn bench(points: &mut Vec<BenchPoint>, name: String, iters: usize, mut f: impl FnMut()) {
    f();
    f();
    let mut flow = tele::span(tele::names::FLOW);
    flow.add_field("name", name.as_str());
    for _ in 0..iters {
        f();
    }
    let seconds = flow.end();
    let point = BenchPoint {
        name,
        iters,
        seconds,
    };
    println!(
        "{:<28} {:>5} iters  {:>10.1} us/iter",
        point.name,
        point.iters,
        point.us_per_iter()
    );
    points.push(point);
}

/// The wrapped spectrum rows of a centered `p`-wide support on an `n` grid
/// (the exact support `LithoSimulator` hands to `inverse_support`).
fn support_bins(p: usize, n: usize) -> Vec<usize> {
    let half = p as i64 / 2;
    (0..p)
        .map(|i| spectral::wrap_index(i as i64 - half, n))
        .collect()
}

fn spectrum(rng: &mut Rng, n: usize, bins: &[usize]) -> Vec<Complex> {
    let mut data = vec![Complex::ZERO; n * n];
    for &r in bins {
        for &c in bins {
            data[r * n + c] = Complex::new(rng.next(), rng.next());
        }
    }
    data
}

fn main() {
    let opts = HarnessOptions::from_env();
    // Flows must be recorded for the report gate even without ILT_TRACE=1.
    tele::set_enabled(true);
    let tiny = opts.scale == "tiny";
    let base_n = opts.config.optics.base_n;
    let clip = opts.config.clip;
    println!(
        "microbench: scale={} base_n={} clip={} inner_threads={}",
        opts.scale, base_n, clip, opts.inner_threads
    );

    let mut rng = Rng(0x5eed_5eed_5eed_5eed);
    let mut points = Vec::new();

    let (fft_iters, sim_iters, iter_iters) = if tiny { (200, 30, 50) } else { (40, 8, 10) };

    // Real-input transforms at the tile grid size and the clip edge (the
    // inspection-system size). Serial pools, so the numbers compare
    // transform work, not threading.
    let serial = InnerPool::serial();
    let rfft = Rfft2d::new(base_n).unwrap();
    let real_src: Vec<f64> = (0..base_n * base_n).map(|_| rng.next()).collect();
    let mut half = vec![Complex::ZERO; rfft.spectrum_len()];
    let mut rscratch = vec![Complex::ZERO; rfft.spectrum_len()];
    bench(
        &mut points,
        format!("rfft_forward_{base_n}"),
        fft_iters,
        || {
            rfft.forward(&real_src, &mut half, &mut rscratch, &serial)
                .unwrap()
        },
    );
    let clip_rfft = Rfft2d::new(clip).unwrap();
    let clip_src: Vec<f64> = (0..clip * clip).map(|_| rng.next()).collect();
    let mut clip_half = vec![Complex::ZERO; clip_rfft.spectrum_len()];
    let mut clip_rscratch = vec![Complex::ZERO; clip_rfft.spectrum_len()];
    bench(
        &mut points,
        format!("rfft_forward_{clip}"),
        fft_iters / 8,
        || {
            clip_rfft
                .forward(&clip_src, &mut clip_half, &mut clip_rscratch, &serial)
                .unwrap()
        },
    );
    // The inverse destroys its spectrum, so each iteration restores it.
    let pristine_half = half.clone();
    let mut inv_half = half.clone();
    let mut real_dst = vec![0.0f64; base_n * base_n];
    bench(
        &mut points,
        format!("rfft_inverse_{base_n}"),
        fft_iters,
        || {
            inv_half.copy_from_slice(&pristine_half);
            rfft.inverse(&mut inv_half, &mut real_dst, &mut rscratch, &serial)
                .unwrap();
        },
    );

    // Simulator passes at the tile grid size, through the workspace arena.
    let bank = opts.bank();
    let system = bank.system(base_n, 1).expect("system construction failed");
    let support = system.simulator().kernels().support();
    let mut ws = system.workspace();
    let mask = Grid::from_fn(base_n, base_n, |x, y| {
        0.3 + 0.2 * ((x as f64 * 0.3).sin() * (y as f64 * 0.21).cos())
    });
    let dldi = Grid::from_fn(base_n, base_n, |x, y| ((x as f64 - y as f64) * 0.01).tanh());
    let target = Grid::from_fn(base_n, base_n, |x, y| {
        f64::from(u8::from(
            x > base_n / 4 && x < 3 * base_n / 4 && y > base_n / 3,
        ))
    });

    // Sparse-support inverse on the simulator's actual P x P support.
    let fft = Fft2d::new(base_n, base_n).unwrap();
    let bins = support_bins(support, base_n);
    let supported = spectrum(&mut rng, base_n, &bins);
    let mut sparse_buf = supported.clone();
    bench(
        &mut points,
        format!("fft_inverse_sparse_{base_n}"),
        fft_iters,
        || {
            sparse_buf.copy_from_slice(&supported);
            fft.inverse_support(&mut sparse_buf, &bins).unwrap();
        },
    );

    bench(&mut points, format!("simulate_{base_n}"), sim_iters, || {
        system.simulate_into(&mask, &mut ws).unwrap();
    });
    bench(&mut points, format!("gradient_{base_n}"), sim_iters, || {
        system.gradient_into(&mut ws, &dldi).unwrap();
    });

    // Full solver iteration: workspace arena + inner pool + reused loss
    // buffers, exactly the shape of the solvers' inner loops.
    let mut loss_eval = LossEval {
        value: 0.0,
        dldi: Grid::new(base_n, base_n, 0.0),
    };
    bench(
        &mut points,
        format!("ilt_iteration_fast_{base_n}"),
        iter_iters,
        || {
            system.simulate_into(&mask, &mut ws).unwrap();
            evaluate_loss_into(system.resist(), ws.intensity(), &target, &mut loss_eval);
            let _ = system.gradient_into(&mut ws, &loss_eval.dldi).unwrap();
        },
    );

    let fast_us = points.last().map_or(0.0, BenchPoint::us_per_iter);

    // Observability overhead, three ways: the same iteration
    // with a span per iteration, run with (1) recorder off, (2) recorder
    // on, and (3) recorder on plus the full ilt-prof layer — CPU sampler
    // at the default rate and allocation tracking — exactly as ilt-serve
    // runs in production. The arms are interleaved round-robin (best-of-4
    // per arm) so clock drift and scheduler noise hit every arm equally
    // instead of biasing whichever runs last; CI gates recorder-only at
    // <= 2% and the combined stack at <= 5%.
    let mut obs_pass = || -> f64 {
        let started = std::time::Instant::now();
        for _ in 0..iter_iters {
            let _span = tele::span(tele::names::SOLVE);
            system.simulate_into(&mask, &mut ws).unwrap();
            evaluate_loss_into(system.resist(), ws.intensity(), &target, &mut loss_eval);
            let _ = system.gradient_into(&mut ws, &loss_eval.dldi).unwrap();
        }
        started.elapsed().as_secs_f64()
    };
    let mut best = [f64::INFINITY; 3];
    for round in 0..5 {
        for (arm, best) in best.iter_mut().enumerate() {
            tele::flight::set_recording(arm >= 1);
            if arm == 2 {
                ilt_prof::alloc::set_enabled(true);
                ilt_prof::start_sampler(ilt_prof::DEFAULT_HZ);
            }
            let seconds = obs_pass();
            if arm == 2 {
                ilt_prof::stop_sampler();
                ilt_prof::alloc::set_enabled(false);
            }
            // Round 0 warms every arm's code path; only later rounds count.
            if round > 0 {
                *best = best.min(seconds);
            }
        }
    }
    let [recorder_off, recorder_on, profiled] = best;
    tele::flight::set_recording(true);
    let obs_overhead = recorder_on / recorder_off;
    let obs_profile_overhead = profiled / recorder_off;
    println!(
        "flight-recorder overhead (span per iteration, on vs off): {:.4}x",
        obs_overhead
    );
    println!(
        "recorder+profiler overhead (sampler {} Hz + alloc tracking, on vs off): {:.4}x",
        ilt_prof::DEFAULT_HZ,
        obs_profile_overhead
    );

    let path = opts.artifact("microbench_summary.json");
    std::fs::write(
        &path,
        render_summary(&opts, &points, obs_overhead, obs_profile_overhead),
    )
    .expect("cannot write summary");
    println!("wrote {}", path.display());

    // The `microbench` report section carries the iteration cost and the
    // transpose/row-batch parameters the plan cache autotuned for this
    // machine.
    ilt_bench::set_report_section("microbench", render_microbench_section(fast_us));
    opts.finish_run("microbench");
}

/// Renders the `microbench` report section: the per-iteration cost of the
/// full solver iteration plus every (size, threads) -> (block, row_batch)
/// choice the FFT plan cache autotuned during the run.
fn render_microbench_section(fast_us: f64) -> String {
    use tele::json;
    let mut out = String::from("{\"iteration_fast_us\":");
    json::push_f64(&mut out, fast_us);
    out.push_str(",\"autotune\":[");
    for (i, (n, threads, params)) in ilt_fft::tuned_summary().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"n\":{n},\"threads\":{threads},\"block\":{},\"row_batch\":{}}}",
            params.block, params.row_batch
        );
    }
    out.push_str("]}");
    out
}

/// Renders the single-point `ilt-bench-trajectory/v1` summary.
fn render_summary(
    opts: &HarnessOptions,
    points: &[BenchPoint],
    obs_overhead: f64,
    obs_profile_overhead: f64,
) -> String {
    use tele::json;
    let mut out = String::from("{\"schema\":\"ilt-bench-trajectory/v1\",\"binary\":\"microbench\"");
    out.push_str(",\"scale\":");
    json::push_str_literal(&mut out, &opts.scale);
    let _ = write!(out, ",\"inner_threads\":{}", opts.inner_threads);
    out.push_str(",\"obs_overhead_ratio\":");
    json::push_f64(&mut out, obs_overhead);
    out.push_str(",\"obs_profile_overhead_ratio\":");
    json::push_f64(&mut out, obs_profile_overhead);
    out.push_str(",\"benches\":[");
    for (i, p) in points.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        json::push_str_literal(&mut out, &p.name);
        let _ = write!(out, ",\"iters\":{}", p.iters);
        out.push_str(",\"seconds\":");
        json::push_f64(&mut out, p.seconds);
        out.push_str(",\"us_per_iter\":");
        json::push_f64(&mut out, p.us_per_iter());
        out.push('}');
    }
    out.push_str("]}\n");
    out
}
