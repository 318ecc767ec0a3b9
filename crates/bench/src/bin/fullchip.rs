//! `fullchip`: the paper-scale sweep — wall-clock and peak resident
//! memory of the multigrid-Schwarz flow as the tile grid grows from 1×1
//! to 4×4.
//!
//! The flow solves one colour band of tiles at a time and folds it into
//! the [`StreamingAssembler`](ilt_tile::StreamingAssembler) before the
//! next, so the solved tile masks it keeps resident
//! ([`ilt_prof::residency`]) are bounded by its largest colour band, not
//! by the tile count. The gate is that absolute bound: on every grid the
//! resident-tile-mask high-water must be at most
//! `largest colour band x tile² x 8 B` — a regression that collects every
//! tile before folding exceeds it fourfold at 16 tiles. Whole-process
//! allocator peaks are reported alongside but not gated — per-tile solver
//! scratch dominates them whatever the assembly does.
//!
//! Grids 2×2 and 3×3 have non-power-of-two clip sides, so quality is
//! measured with [`tiled_print_loss`] (per-tile prints over disjoint
//! cores) rather than a full-clip inspection system; the loss *density*
//! (loss / clip area) is what should stay flat as the chip grows.
//!
//! Artifacts, all in `ILT_OUT` (default `results/`):
//!
//! * `BENCH_fullchip.json` — schema `ilt-bench-trajectory/v1`; one point
//!   per tile grid with wall seconds, the allocator peak live-byte delta,
//!   the resident-tile-mask peak beside its band bound, and the tiled
//!   loss density;
//! * `report.json` — the usual `ilt-report/v2` carrying the `memory`
//!   section that seeds `report_diff --max-rss-ratio` via
//!   `results/baselines/fullchip.json`, plus a `fullchip` section with
//!   the worst resident-peak / band-bound ratio of the sweep.
//!
//! ```text
//! ILT_SCALE=tiny cargo run --release -p ilt-bench --bin fullchip
//! ```

use std::fmt::Write as _;

use ilt_bench::HarnessOptions;
use ilt_core::experiment::{run_method, tiled_print_loss, Method};
use ilt_layout::suite_of_size;
use ilt_telemetry as tele;
use ilt_tile::{multi_coloring, Partition};

// Peak-live attribution needs the tracking allocator to BE the global
// allocator; `main` then switches the counting on.
#[global_allocator]
static GLOBAL: ilt_prof::TrackingAlloc = ilt_prof::TrackingAlloc::new();

/// One trajectory point: the flow on one tile-grid geometry.
struct GridPoint {
    grid: String,
    tiles: usize,
    clip: usize,
    s_max: usize,
    wall_seconds: f64,
    /// Allocator live-byte high-water over the run, relative to the live
    /// level when it started (process RSS never shrinks, so after the
    /// first large run an absolute peak would mask any later change).
    peak_live_delta: i64,
    peak_resident_tile_bytes: i64,
    band_bound_bytes: i64,
    window_peak_rss_bytes: u64,
    loss: usize,
    loss_density: f64,
}

fn main() {
    let opts = HarnessOptions::from_env();
    tele::set_enabled(true);
    ilt_prof::alloc::set_enabled(true);
    ilt_prof::init_from_env(false);
    let tile = opts.config.partition.tile;
    let stride = tile - opts.config.partition.overlap;
    println!(
        "fullchip: scale={} tile={} stride={} workers={}",
        opts.scale, tile, stride, opts.workers
    );

    let bank = opts.bank();
    let executor = opts.executor();
    let mut points = Vec::new();
    // clip = tile + (count-1)·stride puts exactly `count` tile origins on
    // each axis (the last lands flush on the clip edge), so the sweep
    // visits the 1×1, 2×2, 3×3, and 4×4 grids of the scale's geometry.
    for count in 1usize..=4 {
        let mut config = opts.config.clone();
        config.clip = tile + (count - 1) * stride;
        // Deepest hierarchy whose coarsest level still fits the clip.
        let mut s = 1;
        while 2 * s <= config.s_max && 2 * s * tile <= config.clip {
            s *= 2;
        }
        config.s_max = s;
        config.generator.size = config.clip;
        config.validate();
        let case = suite_of_size(&config.generator, 1).remove(0);

        ilt_prof::rss::reset_window();
        ilt_prof::alloc::reset_peak();
        ilt_prof::residency::reset();
        let live_before = ilt_prof::alloc::stats().live_bytes;
        let flow =
            run_method(Method::Ours, &config, &bank, &case.target, &executor).expect("flow failed");
        let peak_live = ilt_prof::alloc::stats().peak_live_bytes;
        let peak_resident_tile_bytes = ilt_prof::residency::peak_bytes();
        ilt_prof::rss::note_window_sample();

        let partition =
            Partition::new(config.clip, config.clip, config.partition).expect("partition");
        let (nx, ny) = (partition.tiles_x(), partition.tiles_y());
        // One colour band of fine tile masks. The sweep's only coarse level
        // is s = 2, whose bands are a single (2·tile)² mask: four fine
        // tiles' worth, which is also the largest fine band of every grid
        // that has that level (3×3 and 4×4).
        let largest_band = multi_coloring(&partition)
            .groups()
            .iter()
            .map(Vec::len)
            .max()
            .unwrap_or(0);
        let band_bound_bytes = (largest_band * tile * tile * std::mem::size_of::<f64>()) as i64;
        let loss = tiled_print_loss(&config, &bank, &case.target, &flow.mask)
            .expect("tiled inspection failed");
        let area = (config.clip * config.clip) as f64;
        let point = GridPoint {
            grid: format!("{nx}x{ny}"),
            tiles: nx * ny,
            clip: config.clip,
            s_max: config.s_max,
            wall_seconds: flow.wall_seconds,
            peak_live_delta: (peak_live - live_before).max(0),
            peak_resident_tile_bytes,
            band_bound_bytes,
            window_peak_rss_bytes: ilt_prof::rss::window_peak(),
            loss,
            loss_density: loss as f64 / area,
        };
        println!(
            "grid {:>3} ({:>2} tiles, clip {:>4}, s_max {}): resident {:>7.2} MiB \
             (band bound {:>7.2} MiB), alloc peak {:>6.2} MiB, {:.2}s, loss density {:.4}",
            point.grid,
            point.tiles,
            point.clip,
            point.s_max,
            point.peak_resident_tile_bytes as f64 / (1 << 20) as f64,
            point.band_bound_bytes as f64 / (1 << 20) as f64,
            point.peak_live_delta as f64 / (1 << 20) as f64,
            point.wall_seconds,
            point.loss_density,
        );
        // The acceptance gate reads the flow's own residency high-water
        // (`ilt_prof::residency`) rather than the allocator peak: per-tile
        // solver scratch dominates the process high-water mark whether or
        // not tiles are held, so the allocator numbers (reported above and
        // in the trajectory) cannot see a flow that stopped folding band
        // by band.
        assert!(
            point.peak_resident_tile_bytes > 0
                && point.peak_resident_tile_bytes <= point.band_bound_bytes,
            "resident-tile peak {} B is outside (0, one colour band = {} B] at {} tiles",
            point.peak_resident_tile_bytes,
            point.band_bound_bytes,
            point.tiles
        );
        points.push(point);
    }

    // Convergence flatness across the sweep is a test concern
    // (`convergence_flatness` in ilt-core); here it is only reported.
    let worst_ratio = points
        .iter()
        .map(|p| p.peak_resident_tile_bytes as f64 / p.band_bound_bytes as f64)
        .fold(0.0f64, f64::max);
    let mut section = String::from("{\"worst_resident_to_band_bound\":");
    tele::json::push_f64(&mut section, worst_ratio);
    section.push('}');
    ilt_bench::set_report_section("fullchip", section);

    let path = opts.artifact("BENCH_fullchip.json");
    std::fs::write(&path, render_trajectory(&opts, &points)).expect("cannot write trajectory");
    println!("wrote {}", path.display());

    opts.finish_run("fullchip");
}

/// Renders the `ilt-bench-trajectory/v1` full-chip trajectory.
fn render_trajectory(opts: &HarnessOptions, points: &[GridPoint]) -> String {
    use tele::json;
    let mut out = String::from("{\"schema\":\"ilt-bench-trajectory/v1\",\"binary\":\"fullchip\"");
    out.push_str(",\"scale\":");
    json::push_str_literal(&mut out, &opts.scale);
    let _ = write!(out, ",\"workers\":{}", opts.workers);
    out.push_str(",\"points\":[");
    for (i, p) in points.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"grid\":");
        json::push_str_literal(&mut out, &p.grid);
        let _ = write!(
            out,
            ",\"tiles\":{},\"clip\":{},\"s_max\":{}",
            p.tiles, p.clip, p.s_max
        );
        out.push_str(",\"wall_seconds\":");
        json::push_f64(&mut out, p.wall_seconds);
        let _ = write!(
            out,
            ",\"peak_live_bytes\":{},\"peak_resident_tile_bytes\":{},\"band_bound_bytes\":{}",
            p.peak_live_delta, p.peak_resident_tile_bytes, p.band_bound_bytes
        );
        let _ = write!(
            out,
            ",\"window_peak_rss_bytes\":{},\"loss\":{}",
            p.window_peak_rss_bytes, p.loss
        );
        out.push_str(",\"loss_density\":");
        json::push_f64(&mut out, p.loss_density);
        out.push('}');
    }
    out.push_str("]}\n");
    out
}
