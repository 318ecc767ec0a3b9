//! The four workloads and the closed loop that runs one of them: one
//! operation at a time, one process, inputs made from the seed alone.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use ilt_core::experiment::Method;
use ilt_core::flows::{FlowResult, StageTiming};
use ilt_core::{diff_layouts, CoreError, ExperimentConfig, LayoutDiff, Schedule, Session};
use ilt_grid::{BitGrid, RealGrid, Rect};
use ilt_layout::generate_clip;
use ilt_tile::{Partition, StitchLine, TileExecutor};

use crate::stats::median;
use crate::trace::{SpanId, Tracer};

/// Which public entry point an operation calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// `Session::run_method(Method::Ours, ..)`.
    Ours,
    /// `Session::run_method(Method::FullChip, ..)`.
    FullChip,
    /// `Session::run_incremental(base, edited, ..)` after a stored base solve.
    Eco,
}

/// One workload: a fixed configuration plus a seeded input stream.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists (repeated in `BENCHMARK.json`, which is the
    /// only reader).
    #[cfg_attr(not(test), allow(dead_code))]
    pub why: &'static str,
    pub flow: Flow,
    /// Clip edge in pixels; tiles are always the 256² default.
    pub clip: usize,
    /// Tile-executor threads (never above the box's 2 cores).
    pub workers: usize,
    /// In the traced run, operation 1 runs operation 0's clip again and
    /// the two masks must agree bit for bit. Only there: the traced run
    /// feeds no end-to-end metric, and in the untraced one the repeat
    /// would cost the quality metrics a clip (see `inspected_ops`).
    pub repeat_first: bool,
    /// Operations timed whatever `--seconds` says. No operation is a
    /// warm-up: the statistic over a run's operations is the mean of the
    /// two fastest, which a first operation slowed by cold caches does
    /// not move.
    pub min_ops: usize,
    /// Mask quality is inspected on exactly the first this-many outputs
    /// (at most `min_ops`), so it never depends on how many more
    /// operations a faster build fits into the run. As many as the run
    /// affords: every seed is another set of clips, and pooled over three
    /// 512² clips the stitch loss of ten seeds spread by up to 0.35.
    pub inspected_ops: usize,
}

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "clip512_ours",
        why: "Table 1 'Ours' on a 512x512 clip, 3x3 tiles of 256, one thread: the plain baseline; 98% of the time is 256-grid tile solves, so solver, litho, FFT and per-tile overhead show here",
        flow: Flow::Ours,
        clip: 512,
        workers: 1,
        repeat_first: true,
        min_ops: 5,
        inspected_ops: 5,
    },
    Workload {
        name: "clip512_fullchip",
        why: "one un-partitioned 512-grid solve of the same clips: bypasses tiling, executor, assembly and store, so a change to those must not move it; FFT and litho changes must, at a size that spills L2",
        flow: Flow::FullChip,
        clip: 512,
        workers: 1,
        repeat_first: true,
        min_ops: 5,
        inspected_ops: 5,
    },
    Workload {
        name: "clip1024_ours_w2",
        why: "the paper-shaped point: 1024x1024 clip, 7x7 tiles, 3-level hierarchy, streamed assembly, 2 workers; shows tile parallelism, colour-band scheduling and multi-level coarse cost",
        flow: Flow::Ours,
        clip: 1024,
        workers: 2,
        repeat_first: false,
        min_ops: 1,
        inspected_ops: 1,
    },
    Workload {
        name: "clip1024_eco_w2",
        why: "incremental re-solve of seeded 8x8 edits after a stored 1024x1024 base solve: store reads, reuse of 45 tiles beside 4 warm re-solves, so fixed assembly is near half of each op",
        flow: Flow::Eco,
        clip: 1024,
        workers: 2,
        repeat_first: false,
        // Operations are ~1.7 s and every edit leaves the clip all but
        // unchanged: many operations, one inspection.
        min_ops: 8,
        inspected_ops: 1,
    },
];

/// Edge of the square a seeded edit flips.
pub const EDIT_EDGE: usize = 8;

impl Workload {
    /// The workload called `name`.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// `ExperimentConfig::paper_default()` at this workload's clip size,
    /// with the deepest coarse hierarchy the clip holds (`s_max` 2 at
    /// 512², 4 at 1024²).
    pub fn config(&self) -> ExperimentConfig {
        let mut config = ExperimentConfig::paper_default();
        config.clip = self.clip;
        config.generator.size = self.clip;
        config.s_max = self.clip / config.partition.tile;
        config.workers = self.workers;
        config.validate();
        config
    }

    /// Grid edge and physical scale of the solves that dominate an
    /// operation: one tile, or the whole clip for the full-chip flow.
    pub fn solve_grid(&self, config: &ExperimentConfig) -> (usize, usize) {
        match self.flow {
            Flow::FullChip => (config.clip, config.inspection_scale()),
            Flow::Ours | Flow::Eco => (config.partition.tile, 1),
        }
    }
}

/// Seed of a run's `k`-th clip: consecutive generator seeds.
pub fn clip_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_add(k as u64)
}

/// Whether a run that has timed `walls` starts another operation: it
/// holds the whole number of operations whose total time is nearest to
/// `seconds` (an operation is started only if at least half of it is
/// expected to fit), and at least `min_ops`. Stopping at the first
/// operation that ends past `seconds` would give the 18 s operations of
/// `clip1024_ours_w2` a second one in a 22 s run.
pub fn another_op(walls: &[f64], seconds: f64, min_ops: usize) -> bool {
    if walls.len() < min_ops {
        return true;
    }
    let timed: f64 = walls.iter().sum();
    timed + 0.5 * median(walls) < seconds
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The square that edit `k` of a run flips: inside one of the clip's four
/// corner stride cells, which only the corner tile covers. Every edit then
/// dirties the same count of tiles — the corner tile plus its three
/// overlap neighbours — so operations of one workload do the same amount
/// of work wherever the seed puts them, and the fixed per-operation work
/// (49 store reads, three full assemblies) weighs against 4 re-solves as
/// it would against an edit's 16 on a chip of many more tiles.
pub fn edit_rect(seed: u64, k: usize, config: &ExperimentConfig) -> Rect {
    let stride = config.partition.tile - config.partition.overlap;
    let cells = config.clip / stride;
    let mut state = seed ^ (k as u64 + 1).wrapping_mul(0xD6E8_FEB8_6659_FD93);
    let mut axis = || {
        let cell = if splitmix64(&mut state).is_multiple_of(2) {
            0
        } else {
            cells - 1
        };
        let offset = splitmix64(&mut state) as usize % (stride - EDIT_EDGE + 1);
        (cell * stride + offset) as i64
    };
    let (x0, y0) = (axis(), axis());
    Rect::from_origin_size(x0, y0, EDIT_EDGE as i64, EDIT_EDGE as i64)
}

/// `base` with `rect` filled by the opposite of its top-left pixel, so at
/// least one pixel always changes.
pub fn apply_edit(base: &BitGrid, rect: Rect) -> BitGrid {
    let fill = 1 - base.get(rect.x0 as usize, rect.y0 as usize);
    let mut edited = base.clone();
    edited.fill_rect(rect, fill);
    edited
}

/// Mask quality of one output, inspected outside the timed region.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quality {
    pub l2: usize,
    pub pvband: usize,
    pub stitch: f64,
    /// Mask/stitch-line crossings the stitch loss was summed over.
    pub crossings: usize,
    /// L2 of printing the target itself as the mask: what no correction
    /// at all scores on this clip.
    pub l2_uncorrected: usize,
}

/// Where one operation's time went, read off `FlowResult.stages`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StageAccount {
    pub coarse_tile_s: f64,
    pub fine_tile_s: f64,
    pub refine_tile_s: f64,
    /// Store lookups of the incremental flow's reuse stage.
    pub reuse_tile_s: f64,
    pub assembly_s: f64,
    /// Every tile solve, in milliseconds.
    pub solve_ms: Vec<f64>,
    /// Iterations the schedule gives those solves.
    pub iterations: usize,
    /// `(iterations, seconds)` of the solves the outside probes model:
    /// the fine-stage solves, or the one full-chip solve.
    pub modelled: Vec<(usize, f64)>,
}

impl StageAccount {
    /// Tile-level seconds of every kind.
    pub fn tile_s(&self) -> f64 {
        self.coarse_tile_s + self.fine_tile_s + self.refine_tile_s + self.reuse_tile_s
    }
}

/// Splits an operation's stages by kind and counts scheduled iterations.
/// `eco` is the incremental flow's dirty frontier: its fine stages re-solve
/// `diff.dirty` in ascending order, edited tiles on the full budget and
/// overlap-only neighbours on the warm one. A label this function does not
/// know counts as fine-stage time with no scheduled iterations.
pub fn account(
    stages: &[StageTiming],
    schedule: &Schedule,
    eco: Option<&LayoutDiff>,
) -> StageAccount {
    let mut acc = StageAccount::default();
    for stage in stages {
        let tiles = &stage.tile_seconds;
        let total: f64 = tiles.iter().sum();
        acc.assembly_s += stage.assembly_seconds;
        let label = stage.label.as_str();
        if label == "eco reuse" {
            acc.reuse_tile_s += total;
            continue;
        }
        acc.solve_ms.extend(tiles.iter().map(|s| s * 1e3));
        if label.starts_with("coarse") {
            acc.coarse_tile_s += total;
            acc.iterations += tiles.len() * schedule.coarse_iterations;
        } else if label.contains("refine") {
            acc.refine_tile_s += total;
            acc.iterations += tiles.len() * schedule.refine_iterations;
        } else {
            acc.fine_tile_s += total;
            let fine_stage = label
                .rsplit_once("fine stage ")
                .and_then(|(_, n)| n.parse::<usize>().ok())
                .and_then(|n| n.checked_sub(1));
            for (k, &seconds) in tiles.iter().enumerate() {
                let iterations = match (label, fine_stage) {
                    ("full-chip", _) => schedule.baseline_iterations,
                    (_, Some(stage)) => match eco {
                        Some(diff) if tiles.len() == diff.dirty.len() => {
                            if diff.edited.contains(&diff.dirty[k]) {
                                schedule.fine_per_stage(stage)
                            } else {
                                schedule.warm_per_stage(stage)
                            }
                        }
                        _ => schedule.fine_per_stage(stage),
                    },
                    _ => continue,
                };
                acc.iterations += iterations;
                acc.modelled.push((iterations, seconds));
            }
        }
    }
    acc
}

/// One timed operation.
#[derive(Debug, Clone)]
pub struct OpRecord {
    pub wall_s: f64,
    pub account: StageAccount,
    /// Tiles served from the store / re-solved (incremental flow only).
    pub reused: usize,
    pub resolved: usize,
    /// Why the operation counts as failed, if it does.
    pub failure: Option<String>,
}

/// Everything one run measured.
#[derive(Debug)]
pub struct RunReport {
    /// Process start → session built and first clip generated: the part
    /// of set-up every workload has, cheap enough to repeat (see
    /// `repeat::setup_probe`).
    pub light_setup_s: f64,
    pub ops: Vec<OpRecord>,
    pub quality: Vec<Quality>,
    pub inspect_ms: Vec<f64>,
    pub generate_ms: Vec<f64>,
    /// Wall seconds of the stored base solve (incremental flow only).
    pub base_solve_s: Option<f64>,
}

impl RunReport {
    pub fn walls(&self) -> Vec<f64> {
        self.ops.iter().map(|op| op.wall_s).collect()
    }

    pub fn failed(&self) -> usize {
        self.ops.iter().filter(|op| op.failure.is_some()).count()
    }
}

fn mask_fault(mask: &RealGrid) -> Option<String> {
    let bad = mask
        .as_slice()
        .iter()
        .position(|v| !v.is_finite() || !(-1e-9..=1.0 + 1e-9).contains(v))?;
    Some(format!(
        "mask value {} at index {bad} is outside [0, 1]",
        mask.as_slice()[bad]
    ))
}

/// What an operation produced, reduced to what the checks need.
struct Produced {
    flow: FlowResult,
    eco: Option<EcoCounts>,
}

struct EcoCounts {
    diff: LayoutDiff,
    reused: usize,
    resolved: usize,
    store_misses: usize,
}

/// The state one run keeps across operations.
pub struct Runner<'a> {
    pub workload: &'a Workload,
    pub config: ExperimentConfig,
    pub session: Session,
    pub executor: TileExecutor,
    pub partition: Partition,
    lines: Vec<StitchLine>,
    seed: u64,
}

impl<'a> Runner<'a> {
    /// Builds the session (kernel bank, inspection system, FFT plans) for
    /// `workload`.
    pub fn new(workload: &'a Workload, seed: u64) -> Result<Self, CoreError> {
        let config = workload.config();
        let session = Session::new(config.clone())?;
        let partition = Partition::new(config.clip, config.clip, config.partition)?;
        let lines = partition.stitch_lines();
        Ok(Runner {
            workload,
            config,
            session,
            executor: TileExecutor::new(workload.workers),
            partition,
            lines,
            seed,
        })
    }

    /// The run's `k`-th clip (clip 0 is also the base every edit of the
    /// incremental flow is applied to).
    pub fn clip(&self, k: usize) -> BitGrid {
        generate_clip(&self.config.generator, clip_seed(self.seed, k))
    }

    fn execute(&self, target: &BitGrid, base: Option<&BitGrid>) -> Result<Produced, String> {
        let result = catch_unwind(AssertUnwindSafe(|| match (self.workload.flow, base) {
            (Flow::Eco, Some(base)) => self
                .session
                .run_incremental(base, target, &self.executor)
                .map(|out| Produced {
                    eco: Some(EcoCounts {
                        diff: out.diff,
                        reused: out.tiles_reused,
                        resolved: out.tiles_resolved,
                        store_misses: out.store_misses,
                    }),
                    flow: out.flow,
                }),
            (flow, _) => {
                let method = if flow == Flow::FullChip {
                    Method::FullChip
                } else {
                    Method::Ours
                };
                self.session
                    .run_method(method, target, &self.executor)
                    .map(|flow| Produced { flow, eco: None })
            }
        }));
        match result {
            Ok(Ok(produced)) => Ok(produced),
            Ok(Err(e)) => Err(format!("flow returned an error: {e}")),
            Err(_) => Err("flow panicked".to_string()),
        }
    }

    /// Inspects `mask` against `target` over the whole clip, and the
    /// uncorrected target next to it. Returns the quality and the
    /// milliseconds the first inspection took.
    pub fn inspect(&self, target: &BitGrid, mask: &RealGrid) -> Result<(Quality, f64), CoreError> {
        let t = Instant::now();
        let (quality, stitch) = self.session.inspect_mask(&self.lines, target, mask)?;
        let inspect_ms = t.elapsed().as_secs_f64() * 1e3;
        let (uncorrected, _) = self
            .session
            .inspect_mask(&self.lines, target, &target.to_real())?;
        Ok((
            Quality {
                l2: quality.l2,
                pvband: quality.pvband,
                stitch: stitch.total,
                crossings: stitch.intersections.len(),
                l2_uncorrected: uncorrected.l2,
            },
            inspect_ms,
        ))
    }

    /// Output checks that need no inspection.
    fn check(
        &self,
        produced: &Produced,
        target: &BitGrid,
        base: Option<&BitGrid>,
    ) -> Option<String> {
        if let Some(tile) = produced.flow.degraded.first() {
            return Some(format!(
                "{} degraded tile(s), first: {} tile {}: {}",
                produced.flow.degraded.len(),
                tile.stage,
                tile.tile,
                tile.error
            ));
        }
        if let Some(fault) = mask_fault(&produced.flow.mask) {
            return Some(fault);
        }
        let (Some(eco), Some(base)) = (&produced.eco, base) else {
            return None;
        };
        let tiles = self.partition.tiles().len();
        if eco.reused + eco.resolved != tiles {
            return Some(format!(
                "reused {} + re-solved {} tiles is not the partition's {tiles}",
                eco.reused, eco.resolved
            ));
        }
        // Recomputed here rather than read from the outcome: the check is
        // that the flow re-solved what the public diff says is dirty.
        let dirty = diff_layouts(&self.partition, base, target).dirty;
        if eco.diff.dirty != dirty || eco.resolved != dirty.len() {
            return Some(format!(
                "re-solved {} tiles, dirty set has {}",
                eco.resolved,
                dirty.len()
            ));
        }
        if eco.store_misses != 0 {
            return Some(format!(
                "{} store misses after a stored base",
                eco.store_misses
            ));
        }
        None
    }

    /// Runs the workload: set-up, then timed operations as [`another_op`]
    /// counts them.
    pub fn run(
        &self,
        seconds: f64,
        started: Instant,
        tracer: &mut Tracer,
        root: SpanId,
    ) -> Result<RunReport, CoreError> {
        let workload = self.workload;
        let eco = workload.flow == Flow::Eco;
        let mut generate_ms = Vec::new();

        // Before the first timed operation: the first clip, then, for the
        // incremental flow, the stored base solve its operations cannot
        // run without.
        let prepare = tracer.open("prepare", Some(root), None);
        let span = tracer.open("generate", Some(prepare), None);
        let first = timed_ms(&mut generate_ms, || self.clip(0));
        tracer.close(span);
        let light_setup_s = started.elapsed().as_secs_f64();
        let ones = first.count_ones();
        assert!(ones > 0 && ones < first.len(), "generated clip is empty");
        let mut base_solve_s = None;
        let mut setup_failure = None;
        if eco {
            let span = tracer.open("run_and_store", Some(prepare), None);
            let t = Instant::now();
            let flow = self.session.run_and_store(&first, &self.executor)?;
            base_solve_s = Some(t.elapsed().as_secs_f64());
            tracer.close(span);
            setup_failure = self.check(&Produced { flow, eco: None }, &first, None);
        }
        tracer.close(prepare);

        let mut report = RunReport {
            light_setup_s,
            ops: Vec::new(),
            quality: Vec::new(),
            inspect_ms: Vec::new(),
            generate_ms: Vec::new(),
            base_solve_s,
        };
        // Traced, with `repeat_first`: operations 0 and 1 share clip 0 and
        // operation 0 leaves its mask here for operation 1 to match.
        let repeat = usize::from(workload.repeat_first && tracer.enabled());
        let mut reference: Option<RealGrid> = None;
        while another_op(&report.walls(), seconds, workload.min_ops) {
            let k = report.ops.len();
            let op = tracer.open("op", Some(root), Some(k));
            let span = tracer.open("generate", Some(op), Some(k));
            let target = timed_ms(&mut generate_ms, || {
                if eco {
                    apply_edit(&first, edit_rect(self.seed, k, &self.config))
                } else if k <= repeat {
                    first.clone()
                } else {
                    self.clip(k - repeat)
                }
            });
            tracer.close(span);
            let base = eco.then_some(&first);

            let name = if eco { "run_incremental" } else { "run_method" };
            let span = tracer.open(name, Some(op), Some(k));
            let t = Instant::now();
            let outcome = self.execute(&target, base);
            let wall_s = t.elapsed().as_secs_f64();
            tracer.close(span);

            let mut record = OpRecord {
                wall_s,
                account: StageAccount::default(),
                reused: 0,
                resolved: 0,
                failure: setup_failure.take().map(|e| format!("set-up: {e}")),
            };
            match outcome {
                Err(e) => record.failure = record.failure.or(Some(e)),
                Ok(produced) => {
                    let diff = produced.eco.as_ref().map(|e| &e.diff);
                    record.account = account(&produced.flow.stages, &self.config.schedule, diff);
                    lay_out_stages(tracer, span, k, &produced.flow.stages, workload.workers);
                    if let Some(eco) = &produced.eco {
                        record.reused = eco.reused;
                        record.resolved = eco.resolved;
                    }
                    let mut failure = self.check(&produced, &target, base);
                    if let Some(reference) = reference.take() {
                        if failure.is_none()
                            && reference.as_slice() != produced.flow.mask.as_slice()
                        {
                            failure = Some(
                                "mask differs from the previous operation's on the same clip"
                                    .into(),
                            );
                        }
                    }
                    if k < workload.inspected_ops && failure.is_none() {
                        let span = tracer.open("inspect", Some(op), Some(k));
                        let (quality, inspect_ms) = self.inspect(&target, &produced.flow.mask)?;
                        tracer.close(span);
                        report.inspect_ms.push(inspect_ms);
                        if 2 * quality.l2 >= quality.l2_uncorrected {
                            failure = Some(format!(
                                "L2 {} is not below half the uncorrected target's {}",
                                quality.l2, quality.l2_uncorrected
                            ));
                        }
                        report.quality.push(quality);
                    }
                    if repeat == 1 && k == 0 {
                        reference = Some(produced.flow.mask);
                    }
                    record.failure = record.failure.or(failure);
                }
            }
            tracer.close(op);
            report.ops.push(record);
        }
        report.generate_ms = generate_ms;
        Ok(report)
    }
}

/// Runs `f`, appending its wall time in milliseconds to `samples`.
fn timed_ms<T>(samples: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    samples.push(t.elapsed().as_secs_f64() * 1e3);
    out
}

/// Lays the stages of one operation out under its `run_*` span from the
/// durations `FlowResult.stages` reports: stage after stage; inside a
/// stage the tiles one after another, then the assembly. A stage span
/// lasts `Σ tiles / workers + assembly`, the time it would take with
/// perfectly balanced workers.
fn lay_out_stages(
    tracer: &mut Tracer,
    run: SpanId,
    op: usize,
    stages: &[StageTiming],
    workers: usize,
) {
    let mut cursor = tracer.start_of(run);
    for stage in stages {
        let tile_s: f64 = stage.tile_seconds.iter().sum();
        let duration = tile_s / workers as f64 + stage.assembly_seconds;
        let id = tracer.synthetic(
            &format!("stage {}", stage.label),
            run,
            Some(op),
            cursor,
            duration,
        );
        let mut inner = cursor;
        for (i, &seconds) in stage.tile_seconds.iter().enumerate() {
            tracer.synthetic(&format!("tile {i}"), id, Some(op), inner, seconds);
            inner += seconds;
        }
        tracer.synthetic("assembly", id, Some(op), inner, stage.assembly_seconds);
        cursor += duration;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stage(label: &str, tiles: &[f64], assembly: f64) -> StageTiming {
        StageTiming {
            label: label.to_string(),
            tile_seconds: tiles.to_vec(),
            assembly_seconds: assembly,
        }
    }

    #[test]
    fn clip_ids_follow_the_seed() {
        assert_eq!(clip_seed(1, 0), 1);
        assert_eq!(clip_seed(1, 2), 3);
        assert_eq!(clip_seed(u64::MAX, 1), 0);
        let config = Workload::by_name("clip512_ours").unwrap().config();
        let a = generate_clip(&config.generator, clip_seed(7, 1));
        let b = generate_clip(&config.generator, clip_seed(8, 0));
        assert_eq!(a, b);
        assert_ne!(a, generate_clip(&config.generator, clip_seed(7, 0)));
    }

    #[test]
    fn a_run_holds_the_operation_count_nearest_to_its_seconds() {
        // Never fewer than the floor, however long the operations.
        assert!(another_op(&[], 22.0, 1));
        assert!(another_op(&[30.0; 3], 22.0, 5));
        // One 18 s operation: a second would end at 36 s, further from 22.
        assert!(!another_op(&[18.0], 22.0, 1));
        // 4.7 s operations: the fifth brings 18.8 s to 23.5 s, a sixth not.
        assert!(another_op(&[4.7; 4], 22.0, 1));
        assert!(!another_op(&[4.7; 5], 22.0, 1));
        // One slow operation does not change what is expected of the next.
        assert!(another_op(&[1.7, 1.7, 9.0, 1.7], 22.0, 1));
    }

    #[test]
    fn workload_configs_have_the_stated_geometry() {
        for w in WORKLOADS {
            let config = w.config();
            let partition = Partition::new(config.clip, config.clip, config.partition).unwrap();
            let per_axis = if w.clip == 512 { 3 } else { 7 };
            assert_eq!(
                (partition.tiles_x(), partition.tiles_y()),
                (per_axis, per_axis)
            );
            assert_eq!(config.partition.tile, 256);
            assert_eq!(config.s_max, w.clip / 256);
            assert!(w.workers <= 2);
            assert!(w.inspected_ops >= 1 && w.inspected_ops <= w.min_ops);
        }
        let full = Workload::by_name("clip512_fullchip").unwrap();
        assert_eq!(full.solve_grid(&full.config()), (512, 2));
        let tiled = Workload::by_name("clip1024_eco_w2").unwrap();
        assert_eq!(tiled.solve_grid(&tiled.config()), (256, 1));
    }

    #[test]
    fn edits_are_deterministic_and_always_dirty_four_tiles() {
        let workload = Workload::by_name("clip1024_eco_w2").unwrap();
        let config = workload.config();
        let partition = Partition::new(config.clip, config.clip, config.partition).unwrap();
        let base = generate_clip(&config.generator, 5);
        let mut positions = std::collections::BTreeSet::new();
        for seed in [1u64, 2, 99, u64::MAX] {
            for k in 0..6 {
                let rect = edit_rect(seed, k, &config);
                assert_eq!(rect, edit_rect(seed, k, &config));
                assert_eq!((rect.width(), rect.height()), (8, 8));
                positions.insert((rect.x0, rect.y0));
                let edited = apply_edit(&base, rect);
                let diff = diff_layouts(&partition, &base, &edited);
                assert!(diff.changed_pixels >= 1);
                assert_eq!(diff.edited.len(), 1, "{rect:?}");
                assert_eq!(diff.dirty.len(), 4, "{rect:?}");
            }
        }
        assert!(
            positions.len() > 20,
            "edits should land in different places"
        );
    }

    #[test]
    fn stage_accounting_splits_kinds_and_counts_iterations() {
        let schedule = Schedule::paper_default();
        let stages = [
            stage("coarse s=2", &[1.0], 0.1),
            stage("fine stage 1", &[0.5, 0.5], 0.2),
            stage("fine stage 2", &[0.25, 0.25], 0.2),
            stage("refine color 1", &[0.125], 0.0),
            stage("refine color 2", &[0.125], 0.0),
        ];
        let acc = account(&stages, &schedule, None);
        assert_eq!(acc.coarse_tile_s, 1.0);
        assert_eq!(acc.fine_tile_s, 1.5);
        assert_eq!(acc.refine_tile_s, 0.25);
        assert_eq!(acc.assembly_s, 0.5);
        assert_eq!(acc.tile_s(), 2.75);
        assert_eq!(acc.solve_ms.len(), 7);
        // 60 coarse + 2 tiles x (20 + 20) fine + 2 x 4 refine.
        assert_eq!(acc.iterations, 60 + 80 + 8);
        assert_eq!(
            acc.modelled,
            vec![(20, 0.5), (20, 0.5), (20, 0.25), (20, 0.25)]
        );
    }

    #[test]
    fn full_chip_is_one_modelled_solve_on_the_baseline_budget() {
        let acc = account(
            &[stage("full-chip", &[4.0], 0.0)],
            &Schedule::paper_default(),
            None,
        );
        assert_eq!(acc.fine_tile_s, 4.0);
        assert_eq!(acc.iterations, 100);
        assert_eq!(acc.modelled, vec![(100, 4.0)]);
    }

    #[test]
    fn incremental_stages_use_the_warm_budget_off_the_edited_tiles() {
        let diff = LayoutDiff {
            changed_pixels: 64,
            edited: vec![8],
            dirty: vec![1, 8, 9],
        };
        let stages = [
            stage("eco reuse", &[0.001; 49], 0.3),
            stage("eco fine stage 1", &[0.1, 0.2, 0.1], 0.3),
            stage("eco fine stage 2", &[0.1, 0.2, 0.1], 0.3),
            stage("eco refine color 3", &[0.05], 0.0),
        ];
        let acc = account(&stages, &Schedule::paper_default(), Some(&diff));
        assert_eq!(acc.solve_ms.len(), 7, "lookups are not solves");
        assert!((acc.reuse_tile_s - 0.049).abs() < 1e-12);
        // Two stages x (10 warm + 20 full + 10 warm) + 4 refine.
        assert_eq!(acc.iterations, 2 * 40 + 4);
        assert_eq!(acc.modelled[..3], [(10, 0.1), (20, 0.2), (10, 0.1)]);
    }

    #[test]
    fn unknown_stage_labels_count_as_time_without_iterations() {
        let acc = account(
            &[stage("polish", &[1.0], 0.5)],
            &Schedule::paper_default(),
            None,
        );
        assert_eq!(
            (acc.fine_tile_s, acc.assembly_s, acc.iterations),
            (1.0, 0.5, 0)
        );
        assert!(acc.modelled.is_empty());
    }

    #[test]
    fn masks_outside_the_unit_range_are_faults() {
        let mut mask = RealGrid::new(4, 4, 0.5);
        assert_eq!(mask_fault(&mask), None);
        mask.set(1, 1, f64::NAN);
        assert!(mask_fault(&mask).is_some());
        mask.set(1, 1, 1.5);
        assert!(mask_fault(&mask).unwrap().contains("1.5"));
    }

    #[test]
    fn synthetic_stage_spans_carry_the_reported_durations() {
        let mut tracer = Tracer::new(true, Instant::now());
        let run = tracer.open("run_method", None, Some(0));
        tracer.close(run);
        let stages = [stage("fine stage 1", &[1.0, 3.0], 0.5)];
        lay_out_stages(&mut tracer, run, 0, &stages, 2);
        let spans = tracer.spans();
        let stage_span = &spans[1];
        assert_eq!(stage_span.name, "stage fine stage 1");
        let lasts = |s: &crate::trace::Span, want: f64| (s.end_s - s.start_s - want).abs() < 1e-9;
        assert!(lasts(stage_span, 2.5));
        assert!(lasts(&spans[2], 1.0) && lasts(&spans[3], 3.0) && lasts(&spans[4], 0.5));
        assert_eq!(spans[4].name, "assembly");
        assert!(spans[1..].iter().all(|s| s.synthetic && s.op == Some(0)));
    }
}
