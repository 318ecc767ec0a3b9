//! Benchmarks of tile partitioning, the two assembly operators, and the
//! stitch-loss metric — the non-solver costs of every full-chip flow.

use criterion::{criterion_group, criterion_main, Criterion};
use ilt_layout::{generate_clip, GeneratorConfig};
use ilt_metrics::{stitch_loss, StitchConfig};
use ilt_tile::{
    assemble, multi_coloring, restrict, AssemblyMode, Partition, PartitionConfig, TileWeights,
};

fn bench_tile_ops(c: &mut Criterion) {
    let clip = 256usize;
    let partition = Partition::new(
        clip,
        clip,
        PartitionConfig {
            tile: 128,
            overlap: 64,
        },
    )
    .expect("partition");
    let layout = generate_clip(&GeneratorConfig::with_size(clip), 7).to_real();
    let tiles: Vec<_> = partition
        .tiles()
        .iter()
        .map(|t| restrict(&layout, t))
        .collect();

    c.bench_function("partition_new_256", |b| {
        b.iter(|| {
            Partition::new(
                clip,
                clip,
                PartitionConfig {
                    tile: 128,
                    overlap: 64,
                },
            )
            .expect("partition")
        })
    });
    c.bench_function("restrict_9_tiles", |b| {
        b.iter(|| {
            partition
                .tiles()
                .iter()
                .map(|t| restrict(&layout, t))
                .collect::<Vec<_>>()
        })
    });
    c.bench_function("assemble_restricted_256", |b| {
        b.iter(|| assemble(&partition, &tiles, AssemblyMode::Restricted).expect("assemble"))
    });
    c.bench_function("assemble_weighted_256", |b| {
        b.iter(|| {
            assemble(
                &partition,
                &tiles,
                AssemblyMode::weighted_default(&partition),
            )
            .expect("assemble")
        })
    });
    c.bench_function("tile_weights_weighted_256", |b| {
        b.iter(|| TileWeights::new(&partition, AssemblyMode::weighted_default(&partition)))
    });

    // The paper-shaped point: a 1024x1024 clip in 7x7 tiles of 256.
    let paper = Partition::new(1024, 1024, PartitionConfig::paper_ratio(256)).expect("partition");
    let paper_tile = ilt_grid::RealGrid::new(256, 256, 0.5);
    let paper_tiles = vec![paper_tile; paper.tiles().len()];
    c.bench_function("assemble_weighted_1024_7x7", |b| {
        b.iter(|| {
            assemble(&paper, &paper_tiles, AssemblyMode::weighted_default(&paper))
                .expect("assemble")
        })
    });
    c.bench_function("tile_weights_weighted_1024_7x7", |b| {
        b.iter(|| TileWeights::new(&paper, AssemblyMode::weighted_default(&paper)))
    });
    c.bench_function("multi_coloring", |b| b.iter(|| multi_coloring(&partition)));

    let bits = layout.threshold(0.5);
    let lines = partition.stitch_lines();
    c.bench_function("stitch_loss_metric_256", |b| {
        b.iter(|| stitch_loss(&bits, &lines, &StitchConfig::paper_default()))
    });
}

criterion_group!(benches, bench_tile_ops);
criterion_main!(benches);
