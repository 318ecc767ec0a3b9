//! Regenerates **Fig. 6**: weighted smoothing (Eq. (12)–(14)) versus hard
//! RAS assembly of the same fine-grid tiles, before and after binarisation.
//!
//! ```text
//! cargo run --release -p ilt-bench --bin fig6_smoothing
//! ```

use ilt_bench::HarnessOptions;
use ilt_grid::io::{write_bit_pgm, write_pgm};
use ilt_layout::suite_of_size;
use ilt_metrics::{stitch_loss, ContinuityComparison};
use ilt_opt::{PixelIlt, SolveContext, SolveRequest, TileSolver};
use ilt_tile::{assemble, restrict, AssemblyMode, Partition, TileExecutor};

fn main() {
    let opts = HarnessOptions::from_env();
    let bank = opts.bank();
    let executor: TileExecutor = opts.executor();
    let clip = suite_of_size(&opts.config.generator, 1).remove(0);
    let partition =
        Partition::new(clip.size(), clip.size(), opts.config.partition).expect("partition");
    let target_real = clip.target.to_real();
    let iterations = opts.config.schedule.baseline_iterations / 2;
    let solver = PixelIlt::new();

    println!("Fig. 6 reproduction: assembling identical tiles two ways");
    // Solve every tile once, independently (so the overlaps genuinely
    // disagree), then assemble the same tile set both ways.
    let masks = executor
        .run(partition.tiles().len(), |i| {
            let tile = partition.tile(i);
            let tile_target = restrict(&target_real, tile);
            let ctx = SolveContext {
                bank: &bank,
                n: opts.config.partition.tile,
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

    let hard = assemble(&partition, &masks, AssemblyMode::Restricted).expect("assembly");
    let soft = assemble(
        &partition,
        &masks,
        AssemblyMode::weighted_default(&partition),
    )
    .expect("assembly");
    let lines = partition.stitch_lines();
    let hard_report = stitch_loss(&hard.threshold(0.5), &lines, &opts.config.stitch);
    let soft_report = stitch_loss(&soft.threshold(0.5), &lines, &opts.config.stitch);
    let comparison = ContinuityComparison {
        restricted: hard_report.total,
        weighted: soft_report.total,
    };
    println!(
        "stitch loss, hard RAS assembly (Eq. 6):      {:.2}",
        comparison.restricted
    );
    println!(
        "stitch loss, weighted assembly (Eq. 12-14):  {:.2}",
        comparison.weighted
    );
    println!("continuity improvement: {:.2}x", comparison.improvement());

    // The four panels of Fig. 6: gray + binarised masks for both modes.
    write_pgm(opts.artifact("fig6_hard_gray.pgm"), &hard).expect("write");
    write_bit_pgm(opts.artifact("fig6_hard_binary.pgm"), &hard.threshold(0.5)).expect("write");
    write_pgm(opts.artifact("fig6_weighted_gray.pgm"), &soft).expect("write");
    write_bit_pgm(
        opts.artifact("fig6_weighted_binary.pgm"),
        &soft.threshold(0.5),
    )
    .expect("write");
    println!(
        "wrote fig6_{{hard,weighted}}_{{gray,binary}}.pgm in {}",
        opts.out_dir.display()
    );

    opts.finish_run("fig6_smoothing");
}
