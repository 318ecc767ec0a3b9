//! The repo's benchmark: Table-1 turn-around time at stated mask quality
//! on four workloads, measured from outside the program. See `README.md`.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload clip512_ours --seed 1 --seconds 22 --trace 0
//! ```
//!
//! With `--workload` the process runs that workload once and prints, as
//! the last line of standard output, one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics` (the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`). Without it
//! the process re-executes itself once per workload, so each starts with
//! cold caches and a clean `VmHWM`; `--repeat N` does that for ten seeds,
//! `N` times, and checks the sets against the benchmark's own bounds.

mod names;
mod probes;
mod repeat;
mod report;
mod stats;
mod trace;
mod workload;

use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use names::Metrics;
use stats::{median, residual_share, summary, two_fastest};
use trace::Tracer;
use workload::{RunReport, Runner, Workload, WORKLOADS};

/// Where run records and traces are written, relative to the directory
/// the benchmark is started from (the root of a checkout).
pub const OUT_DIR: &str = "benchmark/out";

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub repeat: Option<usize>,
    /// Internal: do the light part of set-up, print its seconds, exit.
    pub setup_only: bool,
}

const USAGE: &str = "usage: ilt-benchmark [--workload NAME] [--seed N] [--seconds S] \
[--trace 0|1] [--repeat SETS]";

impl Args {
    /// Parses `--flag value` pairs; every flag is optional.
    pub fn parse(args: &[String]) -> Result<Args, String> {
        let mut out = Args {
            workload: None,
            seed: 1,
            seconds: 22.0,
            trace: false,
            repeat: None,
            setup_only: false,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
            let bad = || format!("bad value {value:?} for {flag}\n{USAGE}");
            match flag.as_str() {
                "--workload" => {
                    if Workload::by_name(value).is_none() {
                        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                        return Err(format!("unknown workload {value:?}; known: {known:?}"));
                    }
                    out.workload = Some(value.clone());
                }
                "--seed" => out.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => {
                    out.seconds = value.parse().map_err(|_| bad())?;
                    if !(out.seconds > 0.0 && out.seconds <= 60.0) {
                        return Err(bad());
                    }
                }
                "--trace" => {
                    out.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                "--setup-only" => out.setup_only = value == "1",
                "--repeat" => {
                    let sets: usize = value.parse().map_err(|_| bad())?;
                    if sets < 2 {
                        return Err(bad());
                    }
                    out.repeat = Some(sets);
                }
                _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
            }
        }
        Ok(out)
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let cleared = report::clear_ilt_env();
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&raw) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let outcome = match (&args.workload, args.repeat) {
        (Some(name), _) => {
            let workload = Workload::by_name(name).expect("validated by the parser");
            if args.setup_only {
                light_setup(workload, args.seed, started)
            } else {
                run_one(workload, &args, started, &cleared)
            }
        }
        (None, Some(sets)) => repeat::check_repeat(&args, sets),
        (None, None) => repeat::run_all(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("benchmark failed: {message}");
            ExitCode::FAILURE
        }
    }
}

/// The part of set-up that can be repeated cheaply: from process start to
/// a built session and a generated first clip. Prints the seconds it took.
fn light_setup(workload: &Workload, seed: u64, started: Instant) -> Result<bool, String> {
    ilt_par::set_inner_threads(1);
    let runner = Runner::new(workload, seed).map_err(|e| format!("session: {e}"))?;
    std::hint::black_box(runner.clip(0));
    println!("{}", started.elapsed().as_secs_f64());
    Ok(true)
}

/// Runs one workload in this process and prints its metrics and the
/// result line. `Ok(false)` when an output check failed.
fn run_one(
    workload: &Workload,
    args: &Args,
    started: Instant,
    cleared: &[String],
) -> Result<bool, String> {
    // One inner thread per tile solve: the tile executor is the only
    // parallelism, so thread count never exceeds the workload's workers.
    ilt_par::set_inner_threads(1);
    let cores = ilt_par::available_cores();
    if workload.workers > cores {
        eprintln!(
            "warning: {} runs {} workers on {cores} core(s); its timings are unresolved, \
             only its counts and quality numbers mean anything",
            workload.name, workload.workers
        );
    }

    let mut tracer = Tracer::new(args.trace, started);
    let root = tracer.open("workload", None, None);
    let span = tracer.open("session_new", Some(root), None);
    let runner = Runner::new(workload, args.seed).map_err(|e| format!("session: {e}"))?;
    tracer.close(span);
    let run = runner
        .run(args.seconds, started, &mut tracer, root)
        .map_err(|e| format!("{}: {e}", workload.name))?;

    let metrics = if args.trace {
        per_layer(&runner, &run, args.seed, &mut tracer, root)
    } else {
        end_to_end(workload, &run, args.seed)?
    };
    tracer.close(root);

    for (name, value, unit) in &metrics {
        println!("{} {name} {value} {unit}", workload.name);
    }
    for (k, op) in run.ops.iter().enumerate() {
        if let Some(failure) = &op.failure {
            eprintln!("{} op {k} failed: {failure}", workload.name);
        }
    }
    let failed = run.failed();
    // Detected only now: it starts `rustc` and `git`, which must not
    // count as the program's set-up time.
    let machine = report::Machine::detect();
    write_record(workload, args, &machine, cleared, &run, &metrics, &tracer);
    println!(
        "{}",
        report::result_line(failed == 0, run.ops.len(), failed, &metrics)
    );
    Ok(failed == 0)
}

/// Fresh processes that repeat the light part of set-up, besides this one.
const SETUP_REPEATS: usize = 4;

/// The end-to-end metrics of an untraced run.
fn end_to_end(
    workload: &Workload,
    run: &RunReport,
    seed: u64,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let walls = run.walls();
    let mut m = Metrics::end_to_end();
    m.set("tat_s", two_fastest(&walls));
    // Set-up is paid once per process, so one run has one sample of it,
    // and the part every workload has (session, first clip: tens of
    // milliseconds) is noisy. That part is repeated in fresh processes
    // and the median taken; the stored base solve of the incremental
    // workload, seconds long, is measured once.
    let mut light = vec![run.light_setup_s];
    for _ in 0..SETUP_REPEATS {
        light.push(repeat::setup_probe(workload.name, seed)?);
    }
    m.set("setup_s", median(&light) + run.base_solve_s.unwrap_or(0.0));
    let peak = ilt_prof::rss::read().map_or(0, |s| s.peak_bytes);
    m.set("peak_rss_mib", peak as f64 / (1u64 << 20) as f64);
    // A run whose every operation failed has no inspected output; it is
    // reported incorrect, and the quality numbers are then the zero of an
    // empty sum (guarded only so the arithmetic stays finite).
    let outputs = run.quality.len().max(1) as f64;
    let l2: usize = run.quality.iter().map(|q| q.l2).sum();
    let pvband: usize = run.quality.iter().map(|q| q.pvband).sum();
    let stitch: f64 = run.quality.iter().map(|q| q.stitch).sum();
    let crossings: usize = run.quality.iter().map(|q| q.crossings).sum();
    m.set("l2_px", l2 as f64 / outputs);
    m.set("pvband_px", pvband as f64 / outputs);
    m.set("stitch_per_crossing", stitch / crossings.max(1) as f64);
    Ok(m.finish())
}

/// The per-layer metrics of a traced run: what `FlowResult.stages` says
/// about the timed operations, plus the outside probes.
fn per_layer(
    runner: &Runner<'_>,
    run: &RunReport,
    seed: u64,
    tracer: &mut Tracer,
    root: trace::SpanId,
) -> Vec<(&'static str, f64, &'static str)> {
    let workload = runner.workload;
    let workers = workload.workers as f64;
    let per_op = |f: &dyn Fn(&workload::OpRecord) -> f64| {
        median(&run.ops.iter().map(f).collect::<Vec<f64>>())
    };
    let mut m = Metrics::per_layer();

    // core: medians over the timed operations.
    m.set("core.coarse_tile_s", per_op(&|op| op.account.coarse_tile_s));
    m.set("core.fine_tile_s", per_op(&|op| op.account.fine_tile_s));
    m.set("core.refine_tile_s", per_op(&|op| op.account.refine_tile_s));
    m.set("core.assembly_s", per_op(&|op| op.account.assembly_s));
    m.set(
        "core.assembly_share",
        per_op(&|op| op.account.assembly_s / op.wall_s),
    );
    let solves: Vec<f64> = run
        .ops
        .iter()
        .flat_map(|op| op.account.solve_ms.iter().copied())
        .collect();
    m.set("core.tile_solve_ms_p50", median_or_zero(&solves));
    m.set(
        "core.tile_solve_ms_max",
        solves.iter().copied().fold(0.0, f64::max),
    );
    m.set(
        "core.unattributed_share",
        per_op(&|op| {
            residual_share(
                op.wall_s,
                op.account.tile_s() / workers + op.account.assembly_s,
            )
        }),
    );
    m.set(
        "tile.worker_busy_share",
        per_op(&|op| op.account.tile_s() / (workers * (op.wall_s - op.account.assembly_s))),
    );
    m.set(
        "core.tiles_solved",
        per_op(&|op| op.account.solve_ms.len() as f64),
    );
    m.set(
        "core.solver_iterations",
        per_op(&|op| op.account.iterations as f64),
    );
    m.set(
        "core.tiles_reused_share",
        per_op(&|op| op.reused as f64 / (op.reused + op.resolved).max(1) as f64),
    );
    let store = ilt_store::shared_store().stats();
    m.set("store.hits", store.hits as f64);
    m.set("store.misses", store.misses as f64);
    m.set("metrics.inspect_ms", median_or_zero(&run.inspect_ms));
    m.set("layout.generate_ms", median(&run.generate_ms));
    m.set("trace.tat_s", two_fastest(&run.walls()));

    // The probes, each group under its own span.
    let base = runner.clip(0);
    let crop = probes::solve_grid_crop(runner, &base);
    let (n, scale) = workload.solve_grid(&runner.config);
    let bank = runner.session.bank();

    let span = tracer.open("probe litho+fft", Some(root), None);
    let litho = probes::litho_and_fft(bank, n, scale, &crop);
    tracer.close(span);
    m.set("fft.rfft2d_fwd_us", litho.rfft2d_fwd * 1e6);
    m.set("fft.c2c_inv_support_us", litho.c2c_inv_support * 1e6);
    m.set("fft.c2c_fwd_support_us", litho.c2c_fwd_support * 1e6);
    m.set("fft.rfft2d_inv_support_us", litho.rfft2d_inv_support * 1e6);
    m.set(
        "fft.rfft2d_fwd_gflops",
        probes::rfft_gflops(n, litho.rfft2d_fwd),
    );
    m.set("litho.simulate_us", litho.simulate * 1e6);
    m.set("litho.gradient_us", litho.gradient * 1e6);
    m.set(
        "litho.sim_residual_share",
        residual_share(litho.simulate, litho.simulate_fft_seconds()),
    );
    m.set(
        "par.inner2_speedup",
        litho.simulate / litho.simulate_two_threads,
    );

    let span = tracer.open("probe solver", Some(root), None);
    let (warm, cold) = probes::solver(bank, n, scale, &crop, runner.config.schedule.fine_lr_scale);
    tracer.close(span);
    m.set("opt.pixel_iter_ms", warm.per_iteration * 1e3);
    m.set("opt.pixel_solve_fixed_ms", warm.fixed * 1e3);
    m.set("opt.cold_iter_ms", cold.per_iteration * 1e3);
    m.set("opt.cold_solve_fixed_ms", cold.fixed * 1e3);
    m.set(
        "opt.iter_residual_share",
        residual_share(warm.per_iteration, litho.simulate + litho.gradient),
    );
    let modelled: Vec<(usize, f64)> = run
        .ops
        .iter()
        .flat_map(|op| op.account.modelled.iter().copied())
        .collect();
    let cost = probes::dominant_cost(workload.flow, warm, cold);
    m.set(
        "core.tile_solve_residual_share",
        if modelled.is_empty() {
            0.0
        } else {
            probes::tile_solve_residual(&modelled, cost)
        },
    );

    let span = tracer.open("probe plumbing", Some(root), None);
    let plumbing = probes::plumbing(runner, &base, seed);
    tracer.close(span);
    m.set("tile.assemble_ms", plumbing.assemble * 1e3);
    m.set("tile.restrict_us", plumbing.restrict * 1e6);
    m.set("tile.partition_ms", plumbing.partition * 1e3);
    m.set("tile.dispatch_us", plumbing.dispatch * 1e6);
    m.set("core.diff_layouts_ms", plumbing.diff_layouts * 1e3);
    m.set("store.get_us", plumbing.store_get * 1e6);
    m.set("store.put_us", plumbing.store_put * 1e6);
    m.set("litho.bank_build_ms", plumbing.bank_build * 1e3);
    m.set(
        "litho.solve_system_build_ms",
        plumbing.solve_system_build * 1e3,
    );
    m.set(
        "litho.inspection_system_build_ms",
        plumbing.inspection_system_build * 1e3,
    );
    m.set("trace.spans", tracer.len() as f64);
    m.finish()
}

/// The median, or zero for the empty sample a run leaves when every
/// operation failed before the thing sampled (such a run is reported
/// incorrect; the metric only has to stay a number).
fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}

/// Writes the run's record (and, traced, its spans) under [`OUT_DIR`].
/// The record is a convenience for people; the result line is the
/// interface, so failing to write it is a warning only.
fn write_record(
    workload: &Workload,
    args: &Args,
    machine: &report::Machine,
    cleared: &[String],
    run: &RunReport,
    metrics: &[(&'static str, f64, &'static str)],
    tracer: &Tracer,
) {
    let walls = run.walls();
    let failures: Vec<String> = run
        .ops
        .iter()
        .enumerate()
        .filter_map(|(k, op)| op.failure.as_ref().map(|f| format!("op {k}: {f}")))
        .collect();
    let tuned: Vec<String> = ilt_fft::tuned_summary()
        .iter()
        .map(|(n, threads, p)| {
            format!(
                "{{\"n\":{n},\"threads\":{threads},\"block\":{},\"row_batch\":{}}}",
                p.block, p.row_batch
            )
        })
        .collect();
    let quality: Vec<String> = run
        .quality
        .iter()
        .map(|q| {
            format!(
                "{{\"l2\":{},\"pvband\":{},\"stitch\":{},\"crossings\":{},\"l2_uncorrected\":{}}}",
                q.l2, q.pvband, q.stitch, q.crossings, q.l2_uncorrected
            )
        })
        .collect();
    let doc = format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"machine\":{},\
         \"cleared_env\":{},\"inner_threads\":1,\"workers\":{},\"timings_unresolved\":{},\
         \"ops\":{},\"op_wall_s\":{},\"op_wall_summary\":{},\"light_setup_s\":{},\"base_solve_s\":{},\
         \"quality\":[{}],\"failures\":{},\"fft_tuned\":[{}],\"metrics\":{}}}\n",
        report::json_string(workload.name),
        args.seed,
        args.seconds,
        args.trace,
        machine.to_json(),
        report::json_string_array(cleared),
        workload.workers,
        workload.workers > machine.nproc,
        run.ops.len(),
        report::json_number_array(&walls),
        report::json_summary(&summary(&walls)),
        run.light_setup_s,
        run.base_solve_s
            .map_or("null".to_string(), |s| s.to_string()),
        quality.join(","),
        report::json_string_array(&failures),
        tuned.join(","),
        report::json_metrics(metrics),
    );
    let dir = Path::new(OUT_DIR);
    let kind = if args.trace { "layers" } else { "run" };
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(dir.join(format!("{kind}-{}.json", workload.name)), doc))
        .and_then(|()| {
            if args.trace {
                tracer.write_jsonl(&dir.join(format!("trace-{}.jsonl", workload.name)))
            } else {
                Ok(())
            }
        });
    if let Err(e) = written {
        eprintln!("warning: could not write under {OUT_DIR}: {e}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_driver_command_line() {
        let args = parse(&[
            "--workload",
            "clip1024_eco_w2",
            "--seed",
            "42",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(args.workload.as_deref(), Some("clip1024_eco_w2"));
        assert_eq!((args.seed, args.seconds, args.trace), (42, 10.0, true));
        assert_eq!(args.repeat, None);
    }

    #[test]
    fn defaults_and_rejections() {
        let args = parse(&[]).unwrap();
        assert_eq!((args.seed, args.seconds, args.trace), (1, 22.0, false));
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--trace", "yes"]).is_err());
        assert!(parse(&["--seconds", "0"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--repeat", "1"]).is_err());
        assert!(parse(&["--frobnicate", "1"]).is_err());
        assert_eq!(parse(&["--repeat", "2"]).unwrap().repeat, Some(2));
    }
}
