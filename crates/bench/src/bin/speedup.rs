//! Regenerates the **Section 4 parallel-speedup experiment**: the paper
//! reports 2.76x on 4 GPUs whose transfers are staged through host memory.
//!
//! Two answers side by side. The *model* replays the measured per-tile
//! runtimes of a one-worker multigrid-Schwarz run through a list-scheduling
//! makespan with a host-staged communication charge (see
//! `ilt_core::speedup` and DESIGN.md for the substitution argument) at 1,
//! 2, 4 and 8 workers. The *measurement* is the wall clock of the same run
//! through `TileExecutor::new(w)` for every one of those worker counts this
//! host has cores for — five interleaved repetitions each, median — so the
//! model's prediction is held against what the machine does (`ILT_WORKERS`
//! is not read: the worker count is the swept variable).
//!
//! ```text
//! cargo run --release -p ilt-bench --bin speedup
//! ```

use ilt_bench::HarnessOptions;
use ilt_core::experiment::Method;
use ilt_core::speedup::{flow_makespan, speedup_curve, CommModel};
use ilt_grid::io::write_csv;
use ilt_layout::suite_of_size;
use ilt_tile::TileExecutor;

/// Interleaved repetitions per measured worker count; the median counts.
const REPS: usize = 5;

fn main() {
    let opts = HarnessOptions::from_env();
    let session = opts.session();
    let clip = suite_of_size(&opts.config.generator, 1).remove(0);
    let workers = [1usize, 2, 4, 8];

    println!("Parallel speedup experiment (schedule model beside measured wall clock)");
    let cores = ilt_par::available_cores();
    // The measurable worker counts are a prefix of `workers` (ascending),
    // so `median_wall[i]` below belongs to `workers[i]`.
    let measured: Vec<usize> = workers
        .iter()
        .copied()
        .take_while(|&w| w <= cores)
        .collect();
    let mut walls = vec![Vec::with_capacity(REPS); measured.len()];
    // The model replays the last one-worker repetition: tile times no
    // second worker contended for, taken with every cache warm.
    let mut flow = None;
    for _ in 0..REPS {
        for (&w, walls) in measured.iter().zip(&mut walls) {
            let run = session
                .run_method(Method::Ours, &clip.target, &TileExecutor::new(w))
                .expect("flow failed");
            walls.push(run.wall_seconds);
            if w == 1 {
                flow = Some(run);
            }
        }
    }
    let flow = flow.expect("one worker always fits");
    let median_wall: Vec<f64> = walls
        .iter_mut()
        .map(|w| {
            w.sort_by(f64::total_cmp);
            w[REPS / 2]
        })
        .collect();
    println!(
        "one-worker run: {} stages, {:.2}s total tile compute, {:.2}s wall",
        flow.stages.len(),
        flow.total_tile_seconds(),
        flow.wall_seconds
    );
    for s in &flow.stages {
        println!(
            "  {:<16} {:2} tiles, {:6.3}s compute, {:6.4}s assembly",
            s.label,
            s.tile_seconds.len(),
            s.total_tile_seconds(),
            s.assembly_seconds
        );
    }

    // Communication: calibrated from measured assembly plus a host-transfer
    // term proportional to tile payload (conservative: 10% of the mean tile
    // solve per exchange, reflecting PCIe staging without direct links).
    let mean_tile = flow.total_tile_seconds()
        / flow
            .stages
            .iter()
            .map(|s| s.tile_seconds.len())
            .sum::<usize>() as f64;
    let comm = CommModel {
        seconds_per_tile: CommModel::from_measured(&flow).seconds_per_tile + 0.1 * mean_tile,
    };
    println!(
        "communication model: {:.4}s per tile per assembly",
        comm.seconds_per_tile
    );

    let curve = speedup_curve(&flow, &workers, comm);
    println!("\nworkers  makespan(s)  speedup  measured wall(s)  measured speedup");
    let mut rows = Vec::new();
    for (i, p) in curve.iter().enumerate() {
        let (wall, measured_speedup) = match median_wall.get(i) {
            Some(wall) => (
                format!("{wall:.4}"),
                format!("{:.3}", median_wall[0] / wall),
            ),
            // Left empty: this host has too few cores to measure it.
            None => (String::new(), String::new()),
        };
        println!(
            "{:>7}  {:>11.3}  {:>6.2}x  {:>16}  {:>16}",
            p.workers, p.makespan, p.speedup, wall, measured_speedup
        );
        rows.push(vec![
            p.workers.to_string(),
            format!("{:.4}", p.makespan),
            format!("{:.3}", p.speedup),
            wall,
            measured_speedup,
        ]);
    }
    for (model, wall) in curve.iter().zip(&median_wall).skip(1) {
        println!(
            "{} workers on {cores} cores: model {:.2}x, measured {:.2}x \
             ({:.3}s -> {wall:.3}s wall, medians of {REPS})",
            model.workers,
            model.speedup,
            median_wall[0] / wall,
            median_wall[0],
        );
    }
    if measured.len() == 1 {
        println!("{cores} core: no worker count beyond one can be measured here");
    }
    let four = curve
        .iter()
        .find(|p| p.workers == 4)
        .expect("4-worker point");
    println!(
        "\n4-worker speedup: {:.2}x (paper: 2.76x on 4 GPUs without direct links)",
        four.speedup
    );
    println!(
        "ideal-communication bound at 4 workers: {:.2}x",
        flow_makespan(
            &flow,
            1,
            CommModel {
                seconds_per_tile: 0.0
            }
        ) / flow_makespan(
            &flow,
            4,
            CommModel {
                seconds_per_tile: 0.0
            }
        )
    );

    let path = opts.artifact("speedup.csv");
    write_csv(
        &path,
        &[
            "workers",
            "makespan_s",
            "speedup",
            "measured_wall_s",
            "measured_speedup",
        ],
        &rows,
    )
    .expect("write CSV");
    println!("wrote {}", path.display());

    opts.finish_run("speedup");
}
