//! `memprofile`: where the memory and CPU samples of the
//! multigrid-Schwarz flow go, by pipeline stage.
//!
//! Runs `Method::Ours` on a 1×1 clip (one tile, no coarse grid) and the
//! paper-ratio 3×3 clip, with the full `ilt-prof` layer on: the tracking
//! global allocator attributes every byte to the pipeline stage that
//! allocated it, the sampling CPU profiler attributes ticks to span
//! paths, and the RSS window records the per-grid high-water mark.
//!
//! The gate is attribution, not size: on each grid at least 90% of the
//! tracked bytes must carry a named stage and the RSS reader must report
//! a non-zero peak, or the binary exits non-zero (after writing its
//! artifacts). How much memory a run takes is `peak_rss_mib` in
//! `benchmark/`.
//!
//! Artifacts, all in `ILT_OUT` (default `results/`):
//!
//! * `memprofile_flame.txt` — collapsed-stack (flamegraph-ready) text of
//!   the whole run, one `span;path count` line per distinct stack;
//! * `report.json` — the usual `ilt-report/v2`, here carrying the
//!   optional `profile` and `memory` sections.
//!
//! ```text
//! ILT_SCALE=tiny cargo run --release -p ilt-bench --bin memprofile
//! ```

use ilt_bench::HarnessOptions;
use ilt_core::experiment::Method;
use ilt_core::Session;
use ilt_layout::suite_of_size;
use ilt_prof::Stage;
use ilt_telemetry as tele;

// Attribution needs the tracking allocator to BE the global allocator;
// `main` then switches the counting on.
#[global_allocator]
static GLOBAL: ilt_prof::TrackingAlloc = ilt_prof::TrackingAlloc::new();

/// Per-stage attribution deltas of one grid run.
struct StageDelta {
    stage: Stage,
    bytes: u64,
    calls: u64,
    samples: u64,
}

fn main() {
    let opts = HarnessOptions::from_env();
    tele::set_enabled(true);
    // This binary exists to profile: allocation counting is always on and
    // the sampler defaults to DEFAULT_HZ (ILT_PROF_HZ=0 still disables).
    ilt_prof::alloc::set_enabled(true);
    ilt_prof::init_from_env(true);
    let base_n = opts.config.optics.base_n;
    println!(
        "memprofile: scale={} base_n={} sampler={} alloc=on",
        opts.scale,
        base_n,
        if ilt_prof::sampler_running() {
            format!("{:.0} Hz", ilt_prof::sampler_hz())
        } else {
            "off".to_string()
        }
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

        // Snapshot all three profilers, run, then diff.
        let before = ilt_prof::alloc::stats();
        let samples_before = ilt_prof::cpu::samples_per_stage();
        ilt_prof::rss::reset_window();
        let session = Session::new(config.clone()).expect("session setup failed");
        let flow = session
            .run_method(Method::Ours, &clip.target, &executor)
            .expect("flow failed");
        ilt_prof::rss::note_window_sample();
        let after = ilt_prof::alloc::stats();
        let samples_after = ilt_prof::cpu::samples_per_stage();
        drop(session);

        let allocated = after.allocated_bytes - before.allocated_bytes;
        let calls = after.allocation_calls - before.allocation_calls;
        let stages: Vec<StageDelta> = Stage::ALL
            .iter()
            .map(|&stage| {
                let b = &before.stages[stage as usize];
                let a = &after.stages[stage as usize];
                let name = stage.name();
                let s0 = samples_before.get(name).copied().unwrap_or(0);
                let s1 = samples_after.get(name).copied().unwrap_or(0);
                StageDelta {
                    stage,
                    bytes: a.bytes - b.bytes,
                    calls: a.calls - b.calls,
                    samples: s1 - s0,
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
        let window_peak_rss = ilt_prof::rss::window_peak();
        println!(
            "grid {grid:>3} ({} tiles, clip {:>4}): {:>7.2} MiB allocated in {calls} calls, \
             {:>6.2} MiB window-peak RSS, {:>5.1}% stage-attributed, {:.2}s",
            partition.tiles().len(),
            config.clip,
            allocated as f64 / (1 << 20) as f64,
            window_peak_rss as f64 / (1 << 20) as f64,
            attribution * 100.0,
            flow.wall_seconds,
        );
        for s in &stages {
            if s.bytes > 0 || s.samples > 0 {
                println!(
                    "    {:<12} {:>10} B in {:>7} calls, {:>5} cpu samples",
                    s.stage.name(),
                    s.bytes,
                    s.calls,
                    s.samples
                );
            }
        }
        // Only Linux has the `/proc/self/status` the RSS reader parses.
        if cfg!(target_os = "linux") {
            assert!(window_peak_rss > 0, "{grid}: RSS reader saw no peak");
        }
        if attribution < worst.0 {
            worst = (attribution, grid);
        }
    }

    println!("\ntop self-time frames:");
    for (frame, n) in ilt_prof::cpu::top_self(10) {
        println!("  {n:>6}  {frame}");
    }

    let flame = opts.artifact("memprofile_flame.txt");
    std::fs::write(&flame, ilt_prof::collapsed()).expect("cannot write flamegraph text");
    println!("wrote {}", flame.display());

    ilt_prof::stop_sampler();
    opts.finish_run("memprofile");
    assert!(
        worst.0 >= 0.9,
        "{}: only {:.1}% of tracked bytes attributed to a named stage",
        worst.1,
        worst.0 * 100.0
    );
}
