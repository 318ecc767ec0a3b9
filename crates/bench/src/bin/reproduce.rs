//! Regenerates the paper's evaluation record in one process: Table 1 and
//! its shape against the paper, Figs. 1, 3, 6, 7 and 8, the §4 parallel
//! speedup, the §2.3 tile-assembly degradation, the design-choice
//! ablations and the extension studies.
//!
//! ```text
//! cargo run --release -p ilt-bench --bin reproduce > results/reproduce_output.txt
//! ```
//!
//! Every section runs on one [`Session`] under a `===== name =====`
//! header, and each (clip, method) flow is solved at most once: later
//! sections reuse the flows Table 1 solved. Only non-default ablation arms
//! and the speedup section's timed runs solve again. Table 1 runs first,
//! so a fault drill (`ILT_FAULTS`) meets the same tile solves whatever
//! follows. Artifacts land in `ILT_OUT`.

use std::cell::{OnceCell, RefCell};
use std::rc::Rc;

use ilt_bench::spatial::CaseQuality;
use ilt_bench::HarnessOptions;
use ilt_core::experiment::{averages, ratios, run_case_with, run_method, Method, MethodAverage};
use ilt_core::flows::{
    multigrid_schwarz, overlap_select, stitch_and_heal, FlowResult, HealOutcome,
};
use ilt_core::speedup::{flow_makespan, speedup_curve, CommModel};
use ilt_core::{ExperimentConfig, Session};
use ilt_grid::io::{write_csv, write_pgm};
use ilt_grid::{BitGrid, GaussianFilter, Grid, RealGrid, Rect};
use ilt_layout::{generate_via_clip, pattern_diversity, suite_of_size, Clip, ViaConfig};
use ilt_litho::{Corner, KernelSet, LithoSimulator};
use ilt_metrics::{check_mask, edge_placement_error, l2_loss, stitch_loss};
use ilt_metrics::{ContinuityComparison, EpeConfig, MrcRules, StitchReport};
use ilt_opt::{LevelSetIlt, PixelIlt, SolveContext, SolveRequest, TileSolver};
use ilt_tile::{assemble, restrict, AssemblyMode, Partition, StitchLine, TileExecutor};

/// The figure and extension sections read `case1` and `case2` only, so
/// only those clips' flows are kept once solved.
const FIGURE_CLIPS: usize = 2;

/// A flow kept for the sections that share it, by (clip index, method).
type Solved = ((usize, Method), Rc<FlowResult>);

/// The session every section solves through, and the flows they share.
struct Runs {
    opts: HarnessOptions,
    session: Session,
    executor: TileExecutor,
    /// The Table 1 clips, and at least the figure clips.
    suite: Vec<Clip>,
    /// Every clip has one size, hence one partition.
    partition: Partition,
    lines: Vec<StitchLine>,
    flows: RefCell<Vec<Solved>>,
    /// Stitch-and-heal on top of `case1`'s divide-and-conquer mask.
    heal: OnceCell<HealOutcome>,
}

impl Runs {
    fn new(opts: HarnessOptions) -> Self {
        let suite = suite_of_size(&opts.config.generator, opts.cases.max(FIGURE_CLIPS));
        let size = suite[0].size();
        let partition = Partition::new(size, size, opts.config.partition).expect("partition");
        Runs {
            session: opts.session(),
            executor: opts.executor(),
            lines: partition.stitch_lines(),
            partition,
            suite,
            opts,
            flows: RefCell::default(),
            heal: OnceCell::new(),
        }
    }

    /// `method` on the clip with index `clip`, solved on first request.
    fn flow(&self, clip: usize, method: Method) -> Rc<FlowResult> {
        let key = (clip, method);
        if let Some((_, flow)) = self.flows.borrow().iter().find(|(k, _)| *k == key) {
            return Rc::clone(flow);
        }
        let (config, bank, clip_) = (&self.opts.config, self.session.bank(), &self.suite[clip]);
        let flow = run_method(method, config, bank, &clip_.target, &self.executor)
            .unwrap_or_else(|e| panic!("{} {} failed: {e}", clip_.name, method.label()));
        let flow = Rc::new(flow);
        if clip < FIGURE_CLIPS {
            self.flows.borrow_mut().push((key, Rc::clone(&flow)));
        }
        flow
    }

    fn heal(&self) -> &HealOutcome {
        self.heal.get_or_init(|| {
            let (config, bank) = (&self.opts.config, self.session.bank());
            let target = &self.suite[0].target;
            let (dnc, solver) = (self.flow(0, Method::MultiLevelDnc), PixelIlt::new());
            stitch_and_heal(config, bank, target, &dnc.mask, &solver, &self.executor)
                .expect("heal failed")
        })
    }

    /// Definition 1 on the binarised mask along the partition's seams.
    fn seams(&self, bits: &BitGrid) -> StitchReport {
        stitch_loss(bits, &self.lines, &self.opts.config.stitch)
    }

    /// Every tile of `case1` solved alone from its own target crop, as a
    /// divide-and-conquer flow does before it assembles.
    fn solve_tiles_alone(&self, solver: &dyn TileSolver, iterations: usize) -> Vec<RealGrid> {
        let target = self.suite[0].target.to_real();
        let (bank, n) = (self.session.bank(), self.opts.config.partition.tile);
        let ctx = SolveContext { bank, n, scale: 1 };
        let partition = &self.partition;
        let solved = self.executor.run(partition.tiles().len(), |i| {
            let tile_target = restrict(&target, partition.tile(i));
            let request = SolveRequest::new(&tile_target, &tile_target, iterations);
            solver.solve(&ctx, &request).map(|o| o.mask)
        });
        let masks: Result<Vec<_>, _> = solved.into_iter().collect();
        masks.expect("tile solves failed")
    }

    /// Inspects a `case1` flow and prints its row: L2, PVBand, stitch, TAT.
    fn quality_row(&self, label: &str, flow: &FlowResult) {
        let target = &self.suite[0].target;
        let inspected = self.session.inspect_mask(&self.lines, target, &flow.mask);
        let (q, r) = inspected.expect("inspect");
        let (l2, pvb, stitch, tat) = (q.l2, q.pvband, r.total, flow.wall_seconds);
        println!("{label:<34} L2 {l2:6}  PVB {pvb:6}  stitch {stitch:8.1}  TAT {tat:6.2}s");
    }

    fn write_pgm(&self, name: &str, grid: &RealGrid) {
        let path = self.opts.artifact(name);
        write_pgm(&path, grid).expect("write PGM");
        println!("wrote {}", path.display());
    }
}

fn main() {
    let runs = Runs::new(HarnessOptions::from_env());
    let (avgs, quality) = table1(&runs);
    shape(&runs, &avgs);
    fig1_mismatch(&runs);
    fig3_stitch_loss(&runs);
    fig6_smoothing(&runs);
    fig7_stitch_heal(&runs);
    fig8_stitch_errors(&runs);
    speedup(&runs);
    assembly_degradation(&runs);
    ablations(&runs);
    related_baselines(&runs);
    manufacturability(&runs);
    via_templates(&runs);
    runs.opts.finish_run("reproduce", &quality);
}

/// Formats a fixed-width table row for terminal output.
fn row(cells: &[String], widths: &[usize]) -> String {
    let cells: Vec<_> = cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}"))
        .collect();
    cells.join("  ")
}

/// **Table 1**: clips x {GLS-ILT, Multi-level-ILT, Full-chip ILT, Ours} x
/// {L2, PVBand, Stitch loss, TAT}, with the `Average` and `Ratio` rows.
/// A traced run also returns every (clip, method) quality matrix.
fn table1(runs: &Runs) -> (Vec<MethodAverage>, Vec<CaseQuality>) {
    println!("===== table1 =====");
    let c = &runs.opts.config;
    let (clips, tile, overlap) = (runs.opts.cases, c.partition.tile, c.partition.overlap);
    println!(
        "Table 1 reproduction: {clips} clips of {0}x{0}, tile {tile} overlap {overlap}, {1} kernels",
        c.clip, c.optics.kernel_count,
    );
    let mut header = vec!["case".to_string(), "area".to_string()];
    for m in Method::all() {
        for col in ["L2", "PVB", "stitch", "TAT(s)"] {
            header.push(format!("{}:{col}", m.label()));
        }
    }
    let widths: Vec<usize> = header.iter().map(|h| h.len().max(9)).collect();
    println!("{}", row(&header, &widths));

    let mut cases = Vec::new();
    let mut quality = Vec::new();
    let mut csv_rows: Vec<Vec<String>> = Vec::new();
    for (i, clip) in runs.suite[..clips].iter().enumerate() {
        let inspection = runs.session.inspection();
        let result = run_case_with(c, inspection, clip, |m| {
            let flow = runs.flow(i, m);
            if ilt_telemetry::enabled() {
                quality.push(CaseQuality::inspect(
                    &runs.session,
                    &runs.partition,
                    clip,
                    m.label(),
                    &flow.mask,
                )?);
            }
            Ok(flow)
        })
        .unwrap_or_else(|e| panic!("{} failed: {e}", clip.name));
        let mut cells = vec![result.name.clone(), result.area.to_string()];
        for m in &result.methods {
            let m = m.metrics;
            cells.extend([m.l2.to_string(), m.pvband.to_string()]);
            cells.extend([format!("{:.1}", m.stitch), format!("{:.2}", m.tat)]);
        }
        println!("{}", row(&cells, &widths));
        csv_rows.push(cells);
        cases.push(result);
    }

    let avgs = averages(&cases);
    let rats = ratios(&avgs, Method::Ours.label());
    for (label, values, digits) in [("Average", &avgs, [1, 1, 1, 3]), ("Ratio", &rats, [4; 4])] {
        let mut cells = vec![label.to_string(), String::new()];
        for a in values {
            for (v, d) in [a.l2, a.pvband, a.stitch, a.tat].into_iter().zip(digits) {
                cells.push(format!("{v:.d$}"));
            }
        }
        println!("{}", row(&cells, &widths));
        csv_rows.push(cells);
    }

    let header: Vec<&str> = header.iter().map(String::as_str).collect();
    let path = runs.opts.artifact("table1.csv");
    write_csv(&path, &header, &csv_rows).expect("failed to write CSV");
    println!("wrote {}", path.display());
    (avgs, quality)
}

/// The shape of the paper's Table 1, one claim per row, judged at its
/// index in [`claims`]. Claims stay free of `,` and `|`:
/// they are written to a CSV and copied into a Markdown table.
const CLAIMS: [&str; 11] = [
    "Stitch loss: Multi-level-ILT D&C / ours > 2",
    "Stitch loss: GLS-ILT D&C lowest (/ next lowest < 1)",
    "Stitch loss: full-chip ≈ ours (/ ours in 0.9–1.1)",
    "L2: full-chip ≈ ours (/ ours in 0.9–1.1)",
    "L2: Multi-level-ILT D&C just above full-chip (/ full in 1–1.25)",
    "L2: GLS-ILT D&C worst (/ next worst > 1)",
    "PVBand: ours best (next best / ours > 1)",
    "PVBand: all methods within 10 % (worst / best < 1.1)",
    "TAT: GLS-ILT D&C slowest (/ next slowest > 1)",
    "TAT: Multi-level-ILT D&C ≈ 2× ours (/ ours in 1.5–3)",
    "TAT: full-chip a little faster than ours (/ ours in 0.75–1)",
];

/// The paper's Table 1 `Ratio` row: [L2, PVBand, stitch loss, TAT] per
/// method in `Method::all()` order, normalised to Ours. EXPERIMENTS.md
/// keeps the L2 entries relative to full-chip (1.23× and 1.05× of its
/// 1.0004×) and PVBand only as "ours best by 1–3 %", placed at 1.01–1.03.
const PAPER: [[f64; 4]; 4] = [
    [1.23 * 1.0004, 1.01, 0.97, 2.73],
    [1.05 * 1.0004, 1.02, 3.16, 2.13],
    [1.0004, 1.03, 1.04, 0.96],
    [1.0, 1.0, 1.0, 1.0],
];

/// Each of [`CLAIMS`] as (ratio, holds), from [L2, PVBand, stitch loss,
/// TAT] averages per method in `Method::all()` order.
fn claims(table: &[[f64; 4]; 4]) -> [(f64, bool); 11] {
    let above = |r: f64, bound| (r, r > bound);
    let below = |r: f64, bound| (r, r < bound);
    let within = |r: f64, lo, hi| (r, lo <= r && r <= hi);
    let [gls, ml, full, ours] = *table;
    let ([gl2, gpvb, gst, gtat], [ml2, mpvb, mst, mtat]) = (gls, ml);
    let ([fl2, fpvb, fst, ftat], [ol2, opvb, ost, otat]) = (full, ours);
    let pvb_worst = gpvb.max(mpvb).max(fpvb).max(opvb);
    let pvb_best = gpvb.min(mpvb).min(fpvb).min(opvb);
    [
        above(mst / ost, 2.0),
        below(gst / mst.min(fst).min(ost), 1.0),
        within(fst / ost, 0.9, 1.1),
        within(fl2 / ol2, 0.9, 1.1),
        within(ml2 / fl2, 1.0, 1.25),
        above(gl2 / ml2.max(fl2).max(ol2), 1.0),
        above(gpvb.min(mpvb).min(fpvb) / opvb, 1.0),
        below(pvb_worst / pvb_best, 1.1),
        above(gtat / mtat.max(ftat).max(otat), 1.0),
        within(mtat / otat, 1.5, 3.0),
        within(ftat / otat, 0.75, 1.0),
    ]
}

/// The shape table's rows: claim, paper ratio, measured ratio, ✔/✘.
fn shape_rows(measured: &[[f64; 4]; 4]) -> Vec<[String; 4]> {
    let paper = claims(&PAPER).map(|(r, _)| r);
    let rows = CLAIMS.iter().zip(paper.into_iter().zip(claims(measured)));
    rows.map(|(claim, (paper, (r, holds)))| {
        let holds = if holds { "✔" } else { "✘" }.to_string();
        let (paper, r) = (format!("{paper:.2}×"), format!("{r:.2}×"));
        [claim.to_string(), paper, r, holds]
    })
    .collect()
}

/// Table 1's shape against the paper's (`shape.csv`, which EXPERIMENTS.md
/// "Shape comparison" copies).
fn shape(runs: &Runs, avgs: &[MethodAverage]) {
    println!("===== shape =====");
    let table = avgs.iter().map(|a| [a.l2, a.pvband, a.stitch, a.tat]);
    let table: Vec<_> = table.collect();
    let rows = shape_rows(&table.try_into().expect("four methods"));
    for [claim, paper, measured, holds] in &rows {
        println!("{holds} {claim:<66} paper {paper:>6}  measured {measured:>6}");
    }
    let path = runs.opts.artifact("shape.csv");
    let rows: Vec<Vec<String>> = rows.iter().map(|r| r.to_vec()).collect();
    let header = ["claim", "paper", "measured", "holds"];
    write_csv(&path, &header, &rows).expect("failed to write CSV");
    println!("wrote {}", path.display());
}

/// **Fig. 1**: the worst seam crossings of `case1` under
/// divide-and-conquer, the mask, and a zoom of the worst crossing.
fn fig1_mismatch(runs: &Runs) {
    println!("===== fig1_mismatch =====");
    println!("Fig. 1 reproduction: boundary mismatch under divide-and-conquer");
    let dnc = runs.flow(0, Method::MultiLevelDnc);
    let binary = dnc.mask.threshold(0.5);
    let report = runs.seams(&binary);
    let mut worst = report.intersections.clone();
    worst.sort_by(|a, b| b.loss.partial_cmp(&a.loss).expect("finite"));
    let (crossings, lines, total) = (worst.len(), runs.lines.len(), report.total);
    println!("{crossings} crossings on {lines} stitch lines, total stitch loss {total:.1}");
    for i in worst.iter().take(5) {
        println!("  crossing at ({:4}, {:4}): loss {:8.2}", i.x, i.y, i.loss);
    }
    runs.write_pgm("fig1_dnc_mask.pgm", &dnc.mask);
    runs.write_pgm("fig1_dnc_mask_binary.pgm", &binary.to_real());
    if let Some(w) = worst.first() {
        let (x, y) = (w.x as i64, w.y as i64);
        let zoom = Rect::new(x - 32, y - 32, x + 32, y + 32).intersect(dnc.mask.bounds());
        let zoom = dnc.mask.crop(zoom.expect("zoom window inside clip"));
        runs.write_pgm("fig1_worst_crossing.pgm", &zoom);
    }
}

/// **Fig. 3**: Definition 1 on `case2`'s divide-and-conquer mask — the
/// per-window losses and the smoothing difference it integrates.
fn fig3_stitch_loss(runs: &Runs) {
    println!("===== fig3_stitch_loss =====");
    let stitch = runs.opts.config.stitch;
    println!(
        "Fig. 3 reproduction: Definition 1 on a divide-and-conquer mask \
         (window {}, sigma {}, {} smoothing iterations)",
        stitch.window, stitch.sigma, stitch.iterations
    );
    let binary = runs.flow(1, Method::MultiLevelDnc).mask.threshold(0.5);
    let report = runs.seams(&binary);
    let crossings = report.intersections.len();
    println!("per-intersection breakdown ({crossings} crossings):");
    for i in &report.intersections {
        let (x, y, window, loss) = (i.x, i.y, i.window, i.loss);
        println!("  ({x:4},{y:4})  window {window}  loss {loss:8.2}");
    }
    println!("total stitch loss: {:.2}", report.total);
    let real = binary.to_real();
    let smoothed = GaussianFilter::new(stitch.sigma).apply_iterated(&real, stitch.iterations);
    let diff = RealGrid::from_fn(real.width(), real.height(), |x, y| {
        (real.get(x, y) - smoothed.get(x, y)).abs()
    });
    runs.write_pgm("fig3_smoothing_difference.pgm", &diff);
}

/// **Fig. 6**: weighted smoothing (Eq. 12–14) against hard RAS assembly
/// (Eq. 6) of the same independently solved tiles.
fn fig6_smoothing(runs: &Runs) {
    println!("===== fig6_smoothing =====");
    println!("Fig. 6 reproduction: assembling identical tiles two ways");
    let iterations = runs.opts.config.schedule.baseline_iterations / 2;
    let masks = runs.solve_tiles_alone(&PixelIlt::new(), iterations);
    let partition = &runs.partition;
    let hard = assemble(partition, &masks, AssemblyMode::Restricted).expect("assembly");
    let weighted = AssemblyMode::weighted_default(partition);
    let soft = assemble(partition, &masks, weighted).expect("assembly");
    let comparison = ContinuityComparison {
        restricted: runs.seams(&hard.threshold(0.5)).total,
        weighted: runs.seams(&soft.threshold(0.5)).total,
    };
    let (hard_loss, soft_loss) = (comparison.restricted, comparison.weighted);
    println!("stitch loss, hard RAS assembly (Eq. 6):      {hard_loss:.2}");
    println!("stitch loss, weighted assembly (Eq. 12-14):  {soft_loss:.2}");
    println!("continuity improvement: {:.2}x", comparison.improvement());
    for (name, mask) in [("hard", &hard), ("weighted", &soft)] {
        let bits = mask.threshold(0.5).to_real();
        runs.write_pgm(&format!("fig6_{name}_gray.pgm"), mask);
        runs.write_pgm(&format!("fig6_{name}_binary.pgm"), &bits);
    }
}

/// **Fig. 7**: stitch-and-heal \[6\] mends the original seams, but its
/// re-optimisation windows create new edges where the errors reappear.
fn fig7_stitch_heal(runs: &Runs) {
    println!("===== fig7_stitch_heal =====");
    println!("Fig. 7 reproduction: stitch-and-heal moves errors to new edges");
    let dnc_bits = runs.flow(0, Method::MultiLevelDnc).mask.threshold(0.5);
    let healed = runs.heal();
    let healed_bits = healed.result.mask.threshold(0.5);
    let before = runs.seams(&dnc_bits).total;
    let after = runs.seams(&healed_bits).total;
    let new = stitch_loss(&healed_bits, &healed.new_lines, &runs.opts.config.stitch).total;
    let edges = healed.new_lines.len();
    println!("stitch loss on ORIGINAL lines: before heal {before:.2} -> after heal {after:.2}");
    println!("stitch loss on the {edges} NEW edges created by healing: {new:.2}");
    println!(
        "the new edges carry {:.2}x the pre-heal seam loss (paper's Fig. 7: \
         stitching errors persist at the newly created boundaries)",
        new / before
    );
    runs.write_pgm("fig7_before_heal.pgm", &dnc_bits.to_real());
    runs.write_pgm("fig7_after_heal.pgm", &healed_bits.to_real());
}

/// **Fig. 8**: crossings whose stitch error exceeds the paper's threshold
/// of 20, divide-and-conquer against multigrid-Schwarz.
fn fig8_stitch_errors(runs: &Runs) {
    const THRESHOLD: f64 = 20.0;
    println!("===== fig8_stitch_errors =====");
    println!("Fig. 8 reproduction: stitch-error locations, traditional vs ours");
    let mut flagged = Vec::new();
    for (name, method) in [
        ("traditional divide-and-conquer", Method::MultiLevelDnc),
        ("multigrid-Schwarz (ours)", Method::Ours),
    ] {
        let bits = runs.flow(0, method).mask.threshold(0.5);
        let report = runs.seams(&bits);
        let errors = report.errors_above(THRESHOLD);
        let (crossings, over, total) = (report.intersections.len(), errors.len(), report.total);
        println!(
            "{name}: {crossings} crossings, {over} with error > {THRESHOLD}, total loss {total:.2}"
        );
        for e in &errors {
            println!("    error at ({:4}, {:4}): {:8.2}", e.x, e.y, e.loss);
        }
        flagged.push(over);
        let file = if method == Method::Ours {
            "ours"
        } else {
            "traditional"
        };
        runs.write_pgm(&format!("fig8_{file}.pgm"), &bits.to_real());
    }
    let (dnc, ours) = (flagged[0], flagged[1]);
    let verdict = if ours <= dnc {
        "improved, matching Fig. 8"
    } else {
        "NOT improved — investigate"
    };
    println!("flagged crossings: {dnc} -> {ours} ({verdict})");
}

/// **§4 parallel speedup**: a list-scheduling model of a one-worker run's
/// tile times at 1, 2, 4 and 8 workers with a host-staged communication
/// charge, beside the median wall clock of five interleaved runs per
/// worker count this host has cores for (`ILT_WORKERS` is not read).
fn speedup(runs: &Runs) {
    const REPS: usize = 5;
    println!("===== speedup =====");
    println!(
        "Parallel speedup experiment (schedule model beside measured wall clock; \
         paper: 2.76x on 4 GPUs without direct links)"
    );
    let workers = [1usize, 2, 4, 8];
    // The measurable worker counts are a prefix of `workers`.
    let cores = ilt_par::available_cores();
    let measured = workers.iter().take_while(|&&w| w <= cores).count();
    let mut walls = vec![Vec::with_capacity(REPS); measured];
    // The model replays the last one-worker repetition: tile times no
    // second worker contended for, taken with every cache warm.
    let (mut flow, session, target) = (None, &runs.session, &runs.suite[0].target);
    for _ in 0..REPS {
        for (&w, walls) in workers.iter().zip(&mut walls) {
            let executor = TileExecutor::new(w);
            let run = session.run_method(Method::Ours, target, &executor);
            let run = run.expect("flow failed");
            walls.push(run.wall_seconds);
            if w == 1 {
                flow = Some(run);
            }
        }
    }
    let flow = flow.expect("one worker always fits");
    walls.iter_mut().for_each(|w| w.sort_by(f64::total_cmp));
    let median_wall: Vec<f64> = walls.iter().map(|w| w[REPS / 2]).collect();
    let (stages, compute) = (flow.stages.len(), flow.total_tile_seconds());
    let wall = flow.wall_seconds;
    println!("one-worker run: {stages} stages, {compute:.2}s total tile compute, {wall:.2}s wall");
    for s in &flow.stages {
        let (label, tiles, assembly) = (&s.label, s.tile_seconds.len(), s.assembly_seconds);
        let compute = s.total_tile_seconds();
        println!("  {label:<16} {tiles:2} tiles, {compute:6.3}s compute, {assembly:6.4}s assembly");
    }

    // Communication: calibrated from measured assembly plus a host-transfer
    // term proportional to tile payload (conservative: 10% of the mean tile
    // solve per exchange, reflecting PCIe staging without direct links).
    let tiles: usize = flow.stages.iter().map(|s| s.tile_seconds.len()).sum();
    let mean_tile = flow.total_tile_seconds() / tiles as f64;
    let seconds_per_tile = CommModel::from_measured(&flow).seconds_per_tile + 0.1 * mean_tile;
    println!("communication model: {seconds_per_tile:.4}s per tile per assembly");

    let curve = speedup_curve(&flow, &workers, CommModel { seconds_per_tile });
    let header = [
        "workers",
        "makespan_s",
        "speedup",
        "measured_wall_s",
        "measured_speedup",
    ];
    let widths = header.map(str::len);
    println!("\n{}", row(&header.map(String::from), &widths));
    let mut rows = Vec::new();
    for (i, p) in curve.iter().enumerate() {
        let mut cells = vec![p.workers.to_string(), format!("{:.4}", p.makespan)];
        cells.push(format!("{:.3}", p.speedup));
        // Left empty where this host has too few cores to measure.
        let wall = median_wall.get(i);
        cells.push(wall.map_or(String::new(), |w| format!("{w:.4}")));
        cells.push(wall.map_or(String::new(), |w| format!("{:.3}", median_wall[0] / w)));
        println!("{}", row(&cells, &widths));
        rows.push(cells);
    }
    let ideal = CommModel {
        seconds_per_tile: 0.0,
    };
    let bound = flow_makespan(&flow, 1, ideal) / flow_makespan(&flow, 4, ideal);
    println!("ideal-communication bound at 4 workers: {bound:.2}x");
    let path = runs.opts.artifact("speedup.csv");
    write_csv(&path, &header, &rows).expect("write CSV");
    println!("wrote {}", path.display());
}

/// **§2.3 motivating experiment**: every independently solved tile prints
/// twice, as its solver left it and re-cropped from the assembled mask,
/// whose margins its neighbours wrote; assembly degrades its L2.
fn assembly_degradation(runs: &Runs) {
    println!("===== assembly_degradation =====");
    println!("Section 2.3 reproduction: L2 degradation from tile assembly");
    let (clip, n) = (&runs.suite[0], runs.opts.config.partition.tile);
    let tile_system = runs.session.bank().system(n, 1).expect("tile system");
    let print = |mask: &RealGrid| {
        let mask = mask.threshold(0.5).to_real();
        tile_system.print(&mask, Corner::Nominal).expect("print")
    };
    let solvers: [&dyn TileSolver; 2] = [&PixelIlt::new(), &LevelSetIlt::new()];
    for solver in solvers {
        let masks = runs.solve_tiles_alone(solver, runs.opts.config.schedule.baseline_iterations);
        let mode = AssemblyMode::Restricted;
        let assembled = assemble(&runs.partition, &masks, mode).expect("assembly");
        let (mut solo, mut cropped) = (0usize, 0usize);
        for (i, mask) in masks.iter().enumerate() {
            let tile = runs.partition.tile(i);
            let (x0, y0) = (tile.rect.x0 as usize, tile.rect.y0 as usize);
            let target = Grid::from_fn(n, n, |x, y| clip.target.get(x0 + x, y0 + y));
            solo += l2_loss(&print(mask), &target);
            cropped += l2_loss(&print(&restrict(&assembled, tile)), &target);
        }
        println!(
            "{:<16}  per-tile L2 sum: solo {solo:6}  cropped-from-assembly {cropped:6}  \
             increase {:+} px^2",
            solver.name(),
            cropped as i64 - solo as i64
        );
    }
    println!("(paper, at 16x linear scale: up to +8247 for Multi-level-ILT, +4600 for GLS-ILT)");
}

/// The design-choice ablations of DESIGN.md §5 on `case1`: blend band,
/// coarse-grid initialisation, fine-stage count, refine pass and SOCS
/// kernel truncation. An arm whose configuration is the default is Table
/// 1's multigrid-Schwarz flow and reuses it.
fn ablations(runs: &Runs) {
    println!("===== ablations =====");
    let target = &runs.suite[0].target;
    let arm = |label: String, edit: &dyn Fn(&mut ExperimentConfig)| {
        let mut config = runs.opts.config.clone();
        edit(&mut config);
        let flow = if config == runs.opts.config {
            runs.flow(0, Method::Ours)
        } else {
            let (bank, solver) = (runs.session.bank(), PixelIlt::new());
            let flow = multigrid_schwarz(&config, bank, target, &solver, &runs.executor);
            Rc::new(flow.expect("flow"))
        };
        runs.quality_row(&label, &flow);
    };
    println!("== ablation 1: blend band D (0 = default overlap/4) ==");
    for band in [2usize, 8, 0, 32] {
        arm(format!("band D = {band}"), &|c| c.blend_band = band);
    }
    println!("== ablation 2: coarse-grid initialisation ==");
    for s_max in [1usize, 2] {
        arm(format!("s_max = {s_max}"), &|c| c.s_max = s_max);
    }
    println!("== ablation 3: fine-stage count at a fixed 40-iteration budget ==");
    for n in [1usize, 2, 4] {
        arm(format!("{n} stage(s)"), &|c| c.schedule.fine_stages = n);
    }
    println!("== ablation 4: refine pass ==");
    for refine in [0usize, 4, 8] {
        arm(format!("refine {refine} iterations"), &|c| {
            c.schedule.refine_iterations = refine
        });
    }

    println!("== ablation 5: SOCS kernel truncation vs simulation error ==");
    let mut full_optics = runs.opts.config.optics;
    full_optics.kernel_count = 1000;
    let reference_set = KernelSet::build(&full_optics, false).expect("kernels");
    let n = runs.opts.config.optics.base_n;
    let mask = Grid::from_fn(n, n, |x, y| if target.get(x, y) != 0 { 1.0 } else { 0.0 });
    let aerial = |set: KernelSet| {
        let sim = LithoSimulator::new(n, set).expect("sim");
        sim.aerial_image(&mask).expect("sim")
    };
    let reference = aerial(reference_set.clone());
    println!("reference: all {} kernels", reference_set.len());
    for k in [1usize, 2, 4, 6, 8, 12] {
        if k > reference_set.len() {
            break;
        }
        let aerial = aerial(reference_set.truncate(k));
        let pairs = aerial.as_slice().iter().zip(reference.as_slice());
        let errors: Vec<f64> = pairs.map(|(a, b)| (a - b).abs()).collect();
        let worst = errors.iter().fold(0.0f64, |w, &d| w.max(d));
        let mean = errors.iter().sum::<f64>() / errors.len() as f64;
        println!("  {k:2} kernels: max |dI| {worst:.4}, mean |dI| {mean:.5}");
    }
    // Print-through effect of truncation at the resist.
    let resist = runs.session.bank().resist();
    let reference_print = resist.print(&reference);
    for k in [2usize, 4, 6] {
        let print = resist.print(&aerial(reference_set.truncate(k)));
        let deviation = print.xor_count(&reference_print);
        let corner = Corner::Nominal;
        println!("  {k:2} kernels: printed-pixel deviation {deviation} px (corner {corner:?})");
    }
}

/// Extension: the related-work boundary treatments of the paper's
/// introduction — overlap-error selection \[5\] and stitch-and-heal \[6\] —
/// beside divide-and-conquer, multigrid-Schwarz and full-chip on `case1`.
fn related_baselines(runs: &Runs) {
    println!("===== related_baselines =====");
    println!("Boundary-treatment comparison on {}:", runs.suite[0].name);
    runs.quality_row("divide-and-conquer", &runs.flow(0, Method::MultiLevelDnc));
    let (config, bank) = (&runs.opts.config, runs.session.bank());
    let target = &runs.suite[0].target;
    let select = overlap_select(config, bank, target, &PixelIlt::new(), &runs.executor);
    runs.quality_row("overlap-select [5]", &select.expect("overlap-select"));
    let healed = runs.heal();
    runs.quality_row("stitch-and-heal [6]", &healed.result);
    // The heal pass creates new edges; charge them too (Fig. 7's point).
    let healed_bits = healed.result.mask.threshold(0.5);
    let new = stitch_loss(&healed_bits, &healed.new_lines, &config.stitch).total;
    let edges = healed.new_lines.len();
    let label = "  + new-edge cost";
    println!("{label:<58}stitch {new:8.1}   (extra loss on the {edges} NEW edges healing created)");
    runs.quality_row("multigrid-Schwarz", &runs.flow(0, Method::Ours));
    runs.quality_row("full-chip reference", &runs.flow(0, Method::FullChip));
}

/// Extension: mask rule violations per flow, those within half an overlap
/// of a stitch line, and the per-gauge edge placement error of the prints
/// (the paper: "such discontinuities can violate the manufacturability
/// rule check").
fn manufacturability(runs: &Runs) {
    println!("===== manufacturability =====");
    let (clip, inspection) = (&runs.suite[0], runs.session.inspection());
    let (rules, epe_cfg) = (MrcRules::m1_default(), EpeConfig::m1_default());
    let near = runs.opts.config.partition.overlap / 2;
    let (name, width, space, area) = (&clip.name, rules.min_width, rules.min_space, rules.min_area);
    println!("Manufacturability on {name} (MRC rules: width {width}, space {space}, area {area}):");
    println!("method                      MRC  MRC-near-line   EPE-mean   EPE-max EPE-viol");
    for (name, method) in [
        ("divide-and-conquer", Method::MultiLevelDnc),
        ("multigrid-Schwarz", Method::Ours),
        ("full-chip reference", Method::FullChip),
    ] {
        let bits = runs.flow(0, method).mask.threshold(0.5);
        let mrc = check_mask(&bits, &rules);
        let printed = inspection.print(&bits.to_real(), Corner::Nominal);
        let epe = edge_placement_error(&clip.target, &printed.expect("print"), &epe_cfg);
        let (count, near_line) = (mrc.count(), mrc.near_lines(&runs.lines, near).len());
        let (mean, max, violations) = (epe.mean_abs, epe.max_abs, epe.violations);
        println!("{name:<22} {count:>8} {near_line:>14} {mean:>10.3} {max:>9} {violations:>8}");
    }
}

/// Extension: why the paper runs ILT on M1 but recommends template
/// extraction for via layers (its §4): the share of features a library of
/// already-seen raster patterns covers, M1 clips against via clips.
fn via_templates(runs: &Runs) {
    println!("===== via_templates =====");
    let count = runs.opts.cases.min(5);
    println!("pattern-diversity analysis ({count} clips per layer):");
    let m1 = runs.suite[..count].iter().map(|clip| clip.target.clone());
    let via_cfg = ViaConfig::with_size(runs.opts.config.clip);
    let via = (1..=count as u64).map(|seed| generate_via_clip(&via_cfg, seed));
    let mut coverage = [0.0; 2];
    let layers = [("M1 ", m1.collect()), ("via", via.collect::<Vec<_>>())];
    for (layer, (name, clips)) in layers.iter().enumerate() {
        for (i, clip) in clips.iter().enumerate() {
            let d = pattern_diversity(clip);
            let case = format!("case{}", i + 1);
            let (features, distinct) = (d.features, d.distinct_patterns);
            let percent = 100.0 * d.template_coverage();
            println!("  {name} {case:<7} {features:4} features, {distinct:4} distinct patterns, coverage {percent:5.1}%");
            coverage[layer] += d.template_coverage();
        }
    }
    let [m1, via] = coverage.map(|c| 100.0 * c / count as f64);
    println!(
        "\nmean template coverage: via {via:.1}% vs M1 {m1:.1}% — template libraries \
         amortise on via layers; dense metal needs per-shape ILT (the paper's \
         rationale for evaluating on M1 only)"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_papers_own_table_holds_every_claim() {
        for row in shape_rows(&PAPER) {
            assert_eq!(
                row[3], "✔",
                "{}: {} fails on the paper's values",
                row[0], row[2]
            );
        }
    }

    #[test]
    fn a_reversed_table_fails_every_claim() {
        // Every ordering the paper reports reversed, every ≈ far off.
        let reversed = [
            [0.5, 1.5, 4.0, 0.2],
            [2.0, 0.6, 0.5, 0.5],
            [3.0, 1.2, 2.0, 2.0],
            [1.0, 1.0, 1.0, 1.0],
        ];
        for row in shape_rows(&reversed) {
            assert_eq!(
                row[3], "✘",
                "{}: {} holds on a reversed table",
                row[0], row[2]
            );
        }
    }

    #[test]
    fn bounds_are_judged_as_stated() {
        // Multi-level-ILT / ours stitch exactly 2 is not "> 2"; full-chip /
        // ours stitch exactly 0.9 and 1.1 is "in 0.9–1.1".
        let at = |ml_stitch, full_stitch| {
            let table = [
                PAPER[0],
                [1.0, 1.0, ml_stitch, 2.0],
                [1.0, 1.0, full_stitch, 0.9],
                PAPER[3],
            ];
            let c = claims(&table);
            (c[0].1, c[2].1)
        };
        assert_eq!(at(2.0, 0.9), (false, true));
        assert_eq!(at(2.01, 1.1), (true, true));
        assert_eq!(at(2.01, 1.11), (true, false));
    }

    #[test]
    fn claims_are_csv_and_markdown_safe() {
        for claim in CLAIMS {
            assert!(!claim.contains([',', '|']), "{claim:?}");
        }
    }

    #[test]
    fn row_formatting() {
        let r = row(&["a".into(), "bb".into()], &[3, 4]);
        assert_eq!(r, "  a    bb");
    }
}
