//! `memprofile`: where the memory and time of the multigrid-Schwarz flow
//! go, by pipeline stage.
//!
//! Runs `Method::Ours` on a 1×1 clip (one tile, no coarse grid) and the
//! paper-ratio 3×3 clip with allocation tracking on: the tracking global
//! allocator attributes every byte to the pipeline stage that allocated
//! it and records each grid's peak of live bytes; the span store's
//! self-time profile says where the time went.
//!
//! The gate is attribution, not size: on each grid at least 90% of the
//! tracked bytes must carry a named stage, or the binary exits non-zero
//! (after writing its artifacts). How much memory a run takes is
//! `peak_rss_mib` in `benchmark/`.
//!
//! Artifacts, all in `ILT_OUT` (default `results/`):
//!
//! * `memprofile_flame.txt` — collapsed-stack (flamegraph-ready) text of
//!   the whole run, one `span;path µs` line per span path: the
//!   `collapsed` member of the report's `profile`;
//! * `report.json` — the usual `ilt-report/v2` with its `profile` and
//!   `memory` sections.
//!
//! ```text
//! ILT_SCALE=tiny cargo run --release -p ilt-bench --bin memprofile
//! ```

use ilt_bench::HarnessOptions;
use ilt_core::experiment::Method;
use ilt_core::Session;
use ilt_layout::suite_of_size;
use ilt_prof::Stage;

// Attribution needs the tracking allocator to BE the global allocator;
// `main` then switches the counting on.
#[global_allocator]
static GLOBAL: ilt_prof::TrackingAlloc = ilt_prof::TrackingAlloc::new();

/// Per-stage attribution deltas of one grid run.
struct StageDelta {
    stage: Stage,
    bytes: u64,
    calls: u64,
}

fn main() {
    let opts = HarnessOptions::from_env_traced();
    // This binary exists to profile: allocation counting is always on.
    ilt_prof::alloc::set_enabled(true);
    let base_n = opts.config.optics.base_n;
    println!(
        "memprofile: scale={} base_n={} alloc=on",
        opts.scale, base_n
    );

    let executor = opts.executor();
    // The least-attributed grid, gated once the artifacts are written.
    let mut worst = (1.0f64, String::new());
    // Clip factors 1 and 2 over the fixed tile/overlap geometry give the
    // 1×1 and paper-ratio 3×3 tile grids (stride is half a tile, so the
    // next admissible clip after 1×1 is already 3×3).
    for factor in [1usize, 2] {
        let mut config = opts.config.clone();
        config.clip = factor * base_n;
        config.s_max = config.s_max.min(factor);
        config.generator.size = config.clip;
        config.validate();
        let clip = suite_of_size(&config.generator, 1).remove(0);

        // Snapshot the allocator, run, then diff.
        let before = ilt_prof::alloc::stats();
        ilt_prof::alloc::reset_peak();
        let session = Session::new(config.clone()).expect("session setup failed");
        let flow = session
            .run_method(Method::Ours, &clip.target, &executor)
            .expect("flow failed");
        let after = ilt_prof::alloc::stats();
        drop(session);

        let allocated = after.allocated_bytes - before.allocated_bytes;
        let calls = after.allocation_calls - before.allocation_calls;
        let stages: Vec<StageDelta> = Stage::ALL
            .iter()
            .map(|&stage| {
                let b = &before.stages[stage as usize];
                let a = &after.stages[stage as usize];
                StageDelta {
                    stage,
                    bytes: a.bytes - b.bytes,
                    calls: a.calls - b.calls,
                }
            })
            .collect();
        let tracked: u64 = stages.iter().map(|s| s.bytes).sum();
        let tagged: u64 = stages
            .iter()
            .filter(|s| s.stage != Stage::Untagged)
            .map(|s| s.bytes)
            .sum();
        let attribution = if tracked == 0 {
            0.0
        } else {
            tagged as f64 / tracked as f64
        };

        let partition = ilt_tile::Partition::new(config.clip, config.clip, config.partition)
            .expect("partition");
        let grid = format!("{}x{}", partition.tiles_x(), partition.tiles_y());
        let peak = after.peak_live_bytes;
        println!(
            "grid {grid:>3} ({} tiles, clip {:>4}): {:>7.2} MiB allocated in {calls} calls, \
             {:>6.2} MiB peak live, {:>5.1}% stage-attributed, {:.2}s",
            partition.tiles().len(),
            config.clip,
            allocated as f64 / (1 << 20) as f64,
            peak as f64 / (1 << 20) as f64,
            attribution * 100.0,
            flow.wall_seconds,
        );
        for s in stages.iter().filter(|s| s.bytes > 0) {
            println!(
                "    {:<12} {:>10} B in {:>7} calls",
                s.stage.name(),
                s.bytes,
                s.calls
            );
        }
        assert!(peak > 0, "{grid}: the allocator saw no live bytes");
        if attribution < worst.0 {
            worst = (attribution, grid);
        }
    }

    // The spans `finish_run` drains into the report's `profile`.
    let profile = ilt_prof::render::self_us(&ilt_telemetry::flight::spans(None));
    println!("\ntop self-time frames (us):");
    for (frame, us) in ilt_prof::render::top_self(&profile, 10) {
        println!("  {us:>9}  {frame}");
    }
    let flame = opts.artifact("memprofile_flame.txt");
    std::fs::write(&flame, ilt_prof::render::collapsed(&profile))
        .expect("cannot write flamegraph text");
    println!("wrote {}", flame.display());

    opts.finish_run("memprofile", &[], &[]);
    assert!(
        worst.0 >= 0.9,
        "{}: only {:.1}% of tracked bytes attributed to a named stage",
        worst.1,
        worst.0 * 100.0
    );
}
