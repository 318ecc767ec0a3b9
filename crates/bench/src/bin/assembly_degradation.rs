//! Regenerates the **Section 2.3 motivating experiment**: assembling
//! independently optimised tiles degrades L2 relative to inspecting each
//! tile alone (the paper reports increases up to 8247 px^2 for
//! Multi-level-ILT and 4600 px^2 for GLS-ILT, at 16x our default linear
//! scale).
//!
//! For each solver, every tile is inspected twice: once as the solver left
//! it, and once re-cropped from the assembled full-clip mask (margins
//! overwritten by neighbours). The difference is the tile-assembly penalty.
//!
//! ```text
//! cargo run --release -p ilt-bench --bin assembly_degradation
//! ```

use ilt_bench::HarnessOptions;
use ilt_grid::Grid;
use ilt_layout::suite_of_size;
use ilt_litho::Corner;
use ilt_metrics::l2_loss;
use ilt_opt::{LevelSetIlt, PixelIlt, SolveContext, SolveRequest, TileSolver};
use ilt_tile::{assemble, restrict, AssemblyMode, Partition};

fn main() {
    let opts = HarnessOptions::from_env();
    let bank = opts.bank();
    let executor = opts.executor();
    let clip = suite_of_size(&opts.config.generator, 1).remove(0);
    let partition =
        Partition::new(clip.size(), clip.size(), opts.config.partition).expect("partition");
    let target_real = clip.target.to_real();
    let n = opts.config.partition.tile;
    let iterations = opts.config.schedule.baseline_iterations;
    let tile_system = bank.system(n, 1).expect("tile system");

    println!("Section 2.3 reproduction: L2 degradation from tile assembly");
    let solvers: Vec<Box<dyn TileSolver>> =
        vec![Box::new(PixelIlt::new()), Box::new(LevelSetIlt::new())];
    for solver in &solvers {
        let masks = executor
            .run(partition.tiles().len(), |i| {
                let tile = partition.tile(i);
                let tile_target = restrict(&target_real, tile);
                let ctx = SolveContext {
                    bank: &bank,
                    n,
                    scale: 1,
                };
                solver
                    .solve(
                        &ctx,
                        &SolveRequest::new(&tile_target, &tile_target, iterations),
                    )
                    .map(|o| o.mask)
            })
            .into_iter()
            .collect::<Result<Vec<_>, _>>()
            .expect("tile solves failed");
        let assembled = assemble(&partition, &masks, AssemblyMode::Restricted).expect("assembly");

        let mut solo_total = 0usize;
        let mut assembled_total = 0usize;
        for (i, solo_mask) in masks.iter().enumerate() {
            let tile = partition.tile(i);
            let tile_target_bits = Grid::from_fn(n, n, |x, y| {
                clip.target
                    .get(tile.rect.x0 as usize + x, tile.rect.y0 as usize + y)
            });
            let solo_print = tile_system
                .print(&solo_mask.threshold(0.5).to_real(), Corner::Nominal)
                .expect("print");
            let cropped = restrict(&assembled, tile);
            let cropped_print = tile_system
                .print(&cropped.threshold(0.5).to_real(), Corner::Nominal)
                .expect("print");
            solo_total += l2_loss(&solo_print, &tile_target_bits);
            assembled_total += l2_loss(&cropped_print, &tile_target_bits);
        }
        let increase = assembled_total as i64 - solo_total as i64;
        println!(
            "{:<16}  per-tile L2 sum: solo {:6}  cropped-from-assembly {:6}  increase {:+} px^2",
            solver.name(),
            solo_total,
            assembled_total,
            increase
        );
    }
    println!("(paper, at 16x linear scale: up to +8247 for Multi-level-ILT, +4600 for GLS-ILT)");

    opts.finish_run("assembly_degradation");
}
