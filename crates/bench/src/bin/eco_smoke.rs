//! Deterministic **ECO drill**: measures the incremental (warm-start)
//! re-solve against a cold full re-solve of the same edited layout.
//!
//! Three phases on one seeded clip:
//!
//! 1. **base (cold + store)** — the multigrid-Schwarz flow on the base
//!    layout, with the final mask's tile crops stored in the shared
//!    `ilt-store` mask store;
//! 2. **edited (cold reference)** — the same flow from scratch on the
//!    edited layout, giving the reference quality and the cold wall time;
//! 3. **edited (warm ECO)** — the incremental re-solve: clean tiles reused
//!    from the store, only the dirty set (edited tile + overlap
//!    neighbours) re-solved warm-started from the base masks.
//!
//! The drill asserts the locality contract (exactly the dirty set
//! re-solves), a >= 2x end-to-end speedup over the cold re-solve, and warm
//! quality within the `report_diff` tolerances of the cold reference. It
//! attaches an `incremental` section to `report.json` for baseline gating.
//!
//! ```text
//! ILT_SCALE=tiny cargo run --release -p ilt-bench --bin eco_smoke
//! ```

use std::fmt::Write as _;

use ilt_bench::diff::DiffThresholds;
use ilt_bench::HarnessOptions;
use ilt_core::experiment::Method;
use ilt_layout::generate_clip;
use ilt_store::MaskStore;
use ilt_telemetry::json;
use ilt_tile::Partition;

/// One phase of the drill.
struct Phase {
    label: &'static str,
    wall_seconds: f64,
    tiles_solved: usize,
    l2: usize,
    pvband: usize,
    stitch: f64,
}

fn main() {
    let opts = HarnessOptions::from_env();
    assert!(
        MaskStore::enabled(),
        "the ECO drill needs the mask store; unset ILT_STORE=0"
    );
    let session = opts.session();
    let executor = opts.executor();
    let config = session.config();
    let partition = Partition::new(config.clip, config.clip, config.partition).expect("partition");
    let lines = partition.stitch_lines();

    // The base clip is suite case 1; the edit flips an 8x8 patch deep in
    // tile 0's exclusive region (both scales keep x, y < 32 exclusive to
    // tile 0), so the dirty set is tile 0 plus its overlap neighbours.
    let base = generate_clip(&config.generator, 1);
    let fill = 1 - base.get(12, 12);
    let mut edited = base.clone();
    for y in 10..18 {
        for x in 10..18 {
            edited.set(x, y, fill);
        }
    }

    println!(
        "ECO drill at scale {} ({}x{} tiles)",
        opts.scale,
        partition.tiles_x(),
        partition.tiles_y()
    );
    let tiles = partition.tiles().len();

    // Phase 1: cold base solve, tile crops stored.
    let base_flow = session
        .run_and_store(&base, &executor)
        .expect("base flow failed");
    let (base_q, base_s) = session
        .inspect_mask(&lines, &base, &base_flow.mask)
        .expect("base inspection failed");

    // Both timed phases finish in tens of milliseconds at bench scales,
    // where single-shot wall clocks carry several milliseconds of
    // scheduler noise — enough to swing the speedup ratio across its
    // gate. The drill therefore interleaves five rounds of the two timed
    // phases and keeps each phase's minimum wall: the flows are
    // deterministic (re-runs produce the identical mask, and dirty tiles
    // always re-solve regardless of store state), so the minimum is the
    // noise-robust estimate of the real cost, and interleaving means a
    // load burst inflates both sides rather than skewing the ratio.
    const TIMING_ROUNDS: usize = 5;

    // Phase 2: cold reference on the edited layout. `run_method` does not
    // touch the store, so the warm phase below can only hit the base keys.
    // Phase 3: warm incremental re-solve.
    let mut cold_flow = None;
    let mut outcome = None;
    for _ in 0..TIMING_ROUNDS {
        let cold_run = session
            .run_method(Method::Ours, &edited, &executor)
            .expect("cold reference flow failed");
        if cold_flow
            .as_ref()
            .is_none_or(|best: &ilt_core::flows::FlowResult| {
                cold_run.wall_seconds < best.wall_seconds
            })
        {
            cold_flow = Some(cold_run);
        }
        let warm_run = session
            .run_incremental(&base, &edited, &executor)
            .expect("incremental flow failed");
        if outcome
            .as_ref()
            .is_none_or(|best: &ilt_core::IncrementalOutcome| {
                warm_run.flow.wall_seconds < best.flow.wall_seconds
            })
        {
            outcome = Some(warm_run);
        }
    }
    let cold_flow = cold_flow.expect("at least one timing round");
    let outcome = outcome.expect("at least one timing round");
    let (cold_q, cold_s) = session
        .inspect_mask(&lines, &edited, &cold_flow.mask)
        .expect("cold inspection failed");
    let (warm_q, warm_s) = session
        .inspect_mask(&lines, &edited, &outcome.flow.mask)
        .expect("warm inspection failed");

    let phases = [
        Phase {
            label: "base_cold_store",
            wall_seconds: base_flow.wall_seconds,
            tiles_solved: tiles,
            l2: base_q.l2,
            pvband: base_q.pvband,
            stitch: base_s.total,
        },
        Phase {
            label: "edited_cold",
            wall_seconds: cold_flow.wall_seconds,
            tiles_solved: tiles,
            l2: cold_q.l2,
            pvband: cold_q.pvband,
            stitch: cold_s.total,
        },
        Phase {
            label: "edited_eco_warm",
            wall_seconds: outcome.flow.wall_seconds,
            tiles_solved: outcome.tiles_resolved,
            l2: warm_q.l2,
            pvband: warm_q.pvband,
            stitch: warm_s.total,
        },
    ];
    println!("\nphase             wall(s)  tiles    L2      PVB   stitch");
    for p in &phases {
        println!(
            "{:<16} {:>8.3} {:>6} {:>7} {:>7} {:>8.4}",
            p.label, p.wall_seconds, p.tiles_solved, p.l2, p.pvband, p.stitch
        );
    }

    let speedup = cold_flow.wall_seconds / outcome.flow.wall_seconds.max(1e-9);
    println!(
        "\nedit: {} changed pixels, dirty tiles {:?}",
        outcome.diff.changed_pixels, outcome.diff.dirty
    );
    println!(
        "reuse: {} of {tiles} tiles from the store ({} re-solved), hit ratio {:.3}",
        outcome.tiles_reused,
        outcome.tiles_resolved,
        outcome.hit_ratio()
    );
    println!("speedup: {speedup:.2}x warm over cold");

    // Locality contract: the edit touched exactly tile 0's neighbourhood.
    assert_eq!(
        outcome.diff.edited,
        vec![0],
        "the 8x8 patch must dirty exactly tile 0"
    );
    // The exact dirty set is tile 0 plus its overlap neighbours, derived
    // from the partition itself so the drill holds on any M x N grid
    // (clamped geometries included), not just the paper-ratio 3x3.
    let mut expected_dirty = partition.neighbors(0);
    expected_dirty.push(0);
    expected_dirty.sort_unstable();
    assert_eq!(
        outcome.diff.dirty, expected_dirty,
        "the dirty frontier must be exactly the edited tile plus its \
         partition neighbours"
    );
    assert_eq!(
        outcome.tiles_resolved,
        outcome.diff.dirty.len(),
        "exactly the dirty set must re-solve"
    );
    assert_eq!(outcome.tiles_reused + outcome.tiles_resolved, tiles);
    assert_eq!(
        outcome.store_misses, 0,
        "every lookup must hit after a stored base solve"
    );
    assert!(outcome.flow.degraded.is_empty(), "warm flow degraded tiles");

    // Quality contract: the warm mask stays within the report_diff
    // tolerances of the cold reference.
    let t = DiffThresholds::default();
    for (metric, cold, warm) in [
        ("l2", cold_q.l2 as f64, warm_q.l2 as f64),
        ("pvband", cold_q.pvband as f64, warm_q.pvband as f64),
        ("stitch", cold_s.total, warm_s.total),
    ] {
        let bound = cold * t.max_quality_ratio + t.quality_slack;
        assert!(
            warm <= bound,
            "warm {metric} {warm} exceeds cold {cold} * {} + {} = {bound}",
            t.max_quality_ratio,
            t.quality_slack
        );
    }

    // Speed contract: warm-starting only the dirty set at the halved fine
    // budget must beat the cold re-solve by at least 2x end to end. The
    // asymptotic locality claim is asserted exactly above (dirty set,
    // reuse count, store hits); this wall-clock floor is a smoke bound for
    // any machine, well below the ~3.7-4.3x a quiet one measures at bench
    // scales (CI gates the reported ratio at 3.0).
    assert!(
        speedup >= 2.0,
        "ECO speedup {speedup:.2}x is below the 2x acceptance floor \
         (cold {:.3}s, warm {:.3}s)",
        cold_flow.wall_seconds,
        outcome.flow.wall_seconds
    );

    let incremental = render_section(&outcome, speedup, &phases);
    opts.finish_run("eco_smoke", &[], &[("incremental", incremental)]);
}

/// Renders the optional `incremental` section of `report.json`: the reuse
/// accounting and cold/warm comparison the `report_diff` baseline gates.
fn render_section(
    outcome: &ilt_core::IncrementalOutcome,
    speedup: f64,
    phases: &[Phase],
) -> String {
    let mut out = String::from("{");
    let _ = write!(
        out,
        "\"tiles_reused\":{},\"tiles_resolved\":{},\"changed_pixels\":{},\
         \"store_hits\":{},\"store_misses\":{},\"hit_ratio\":",
        outcome.tiles_reused,
        outcome.tiles_resolved,
        outcome.diff.changed_pixels,
        outcome.store_hits,
        outcome.store_misses
    );
    json::push_f64(&mut out, outcome.hit_ratio());
    out.push_str(",\"dirty_tiles\":[");
    for (i, t) in outcome.diff.dirty.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{t}");
    }
    out.push_str("],\"speedup\":");
    json::push_f64(&mut out, speedup);
    out.push_str(",\"phases\":{");
    for (i, p) in phases.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::push_str_literal(&mut out, p.label);
        out.push_str(":{\"wall_seconds\":");
        json::push_f64(&mut out, p.wall_seconds);
        let _ = write!(
            out,
            ",\"tiles_solved\":{},\"l2\":{},\"pvband\":{},\"stitch\":",
            p.tiles_solved, p.l2, p.pvband
        );
        json::push_f64(&mut out, p.stitch);
        out.push('}');
    }
    out.push_str("}}");
    out
}
