//! The one tile-stage pipeline every partitioned flow runs.
//!
//! A stage walks the partition's colour bands in the streaming
//! assembler's canonical order: solve one band, record its per-tile
//! seconds, fold it into the stage's sink inside an `assembly` span, drop
//! it, and after the last band finish the sink. At most one colour band of
//! solved tile masks is therefore resident at once (each band's `assembly`
//! span carries its `resident_bytes`), and every flow folds in the same
//! fixed order.
//! [`run_banded_stage`] is that loop; flows differ only in how a band's
//! tiles are produced (plain `run` for the baselines, which abort on the
//! first tile error; [`Recovering::solve`] for Ours and ECO, which degrade
//! a failed tile to its pre-stage crop) and in how a band folds
//! ([`run_assembled_stage`] for every flow that assembles masks).
//!
//! An assembled stage's folds run on the tile workers too: each band is
//! split into disjoint ranges of layout rows, one per worker
//! ([`StreamingAssembler::push_band`]). The split is by pixels, not by
//! tiles, so a band is still folded and dropped before the next is solved
//! (the residency above is unchanged) and every pixel still receives its
//! additions in canonical order: the mask is bit-identical at any worker
//! count.
//!
//! The fine-level pieces Ours and its incremental re-solve share also live
//! here: the warm-started fine tile solve ([`FineTiles::solve`]) and the
//! multi-colour multiplicative refine ([`refine_pass`]).

use ilt_grid::{BitGrid, RealGrid};
use ilt_litho::LithoBank;
use ilt_opt::{SolveContext, SolveRequest, TileSolver};
use ilt_telemetry as tele;
use ilt_tile::{
    multi_coloring, restrict, AssemblyMode, Partition, StreamingAssembler, TileExecutor,
    TileWeights,
};

use crate::config::ExperimentConfig;
use crate::error::CoreError;
use crate::flows::{trace, DegradedTile, StageTiming};

/// Runs one stage over `partition`, one colour band at a time.
///
/// `solve_band` receives a band's **tile indices** and returns one
/// `(payload, seconds)` pair per index, in the same order; `fold` folds a
/// band's `(tile index, payload)` pairs into `sink`, bands in canonical
/// colour-band order; `finish` turns the sink into the stage's output once
/// every tile is folded. The returned timing's `tile_seconds` is indexed by
/// tile.
pub(crate) fn run_banded_stage<T, S, R>(
    label: &str,
    partition: &Partition,
    mut sink: S,
    mut solve_band: impl FnMut(&[usize]) -> Result<Vec<(T, f64)>, CoreError>,
    mut fold: impl FnMut(&mut S, &[(usize, &T)]) -> Result<(), CoreError>,
    finish: impl FnOnce(S) -> Result<R, CoreError>,
) -> Result<(R, StageTiming), CoreError> {
    let stage = trace::stage(label.to_string());
    let tile = partition.config().tile;
    let mask_bytes = tile * tile * std::mem::size_of::<f64>();
    let mut tile_seconds = vec![0.0; partition.tiles().len()];
    let mut assembly_seconds = 0.0;
    for group in multi_coloring(partition).groups() {
        if group.is_empty() {
            continue;
        }
        let band = solve_band(&group)?;
        for ((_, seconds), &i) in band.iter().zip(&group) {
            tile_seconds[i] = *seconds;
        }
        // Each payload carries one solved tile mask.
        let band_bytes = band.len() * mask_bytes;
        let pairs: Vec<(usize, &T)> = group
            .iter()
            .copied()
            .zip(band.iter().map(|(p, _)| p))
            .collect();
        let ((), fold_seconds) =
            trace::assembly_fold(Some(band_bytes), || fold(&mut sink, &pairs))?;
        assembly_seconds += fold_seconds;
        // `band` drops here: a stage never holds more than one colour band.
    }
    let (out, finish_seconds) = trace::assembly_fold(None, || finish(sink))?;
    assembly_seconds += finish_seconds;
    Ok((out, stage.finish_streamed(tile_seconds, assembly_seconds)))
}

/// A banded stage whose tiles are masks, assembled into a layout by
/// Eq. (6) ([`AssemblyMode::Restricted`]) or Eq. (14) (weighted), each fold
/// split by rows over `executor`'s workers.
pub(crate) fn run_assembled_stage(
    label: &str,
    partition: &Partition,
    mode: AssemblyMode,
    executor: &TileExecutor,
    solve_band: impl FnMut(&[usize]) -> Result<Vec<(RealGrid, f64)>, CoreError>,
) -> Result<(RealGrid, StageTiming), CoreError> {
    run_banded_stage(
        label,
        partition,
        assembler(partition, mode, executor),
        solve_band,
        |assembler, band| Ok(assembler.push_band(band)?),
        |assembler| Ok(assembler.finish()?),
    )
}

/// A streaming assembler over `partition` whose folds split over
/// `executor`'s workers. Its clip-sized layout is assembly memory, so it is
/// built under that profiling tag; no `assembly` span, so its time stays
/// out of the stage's assembly seconds.
pub(crate) fn assembler<'p>(
    partition: &'p Partition,
    mode: AssemblyMode,
    executor: &TileExecutor,
) -> StreamingAssembler<'p> {
    let _tag = ilt_prof::stage_scope(ilt_prof::Stage::Assembly);
    StreamingAssembler::new(partition, mode).on(executor)
}

/// The failure policy of Ours and its incremental re-solve: tile solves
/// run under the executor's per-tile retry, and a tile that still fails
/// degrades instead of aborting the flow.
pub(crate) struct Recovering<'a> {
    /// Flow report name, for the `degraded` spans.
    flow: &'a str,
    executor: &'a TileExecutor,
    /// Every tile degraded so far, in stage order.
    pub degraded: Vec<DegradedTile>,
}

impl<'a> Recovering<'a> {
    /// A recovery context with no tile degraded yet.
    pub(crate) fn new(flow: &'a str, executor: &'a TileExecutor) -> Self {
        Recovering {
            flow,
            executor,
            degraded: Vec::new(),
        }
    }

    /// Solves tiles `indices` of `partition` in one executor call and
    /// returns their `(mask, seconds)` pairs in the same order. A tile
    /// whose solve failed after retries — by panicking or by returning a
    /// typed error — degrades gracefully: it keeps its crop of `mask` (its
    /// pre-stage, i.e. coarse-grid, mask), is counted in
    /// `flow.tiles_degraded` and, under tracing, recorded as a zero-length
    /// `degraded` span where it happened, and the stage's normal fold
    /// stitches it in. The one exception is
    /// [`ilt_opt::OptError::DeadlineExceeded`]: the job's budget is already
    /// blown, so the whole flow aborts with the typed error instead of
    /// burning the remaining stages.
    pub(crate) fn solve(
        &mut self,
        label: &str,
        partition: &Partition,
        mask: &RealGrid,
        indices: &[usize],
        solve: impl Fn(usize) -> Result<(RealGrid, f64), CoreError> + Sync,
    ) -> Result<Vec<(RealGrid, f64)>, CoreError> {
        let results = self.executor.run_recoverable(indices, solve);
        let mut solved = Vec::with_capacity(results.len());
        for (result, &tile) in results.into_iter().zip(indices) {
            let error = match result {
                Ok(Ok(pair)) => {
                    solved.push(pair);
                    continue;
                }
                Ok(Err(e)) => {
                    if e.is_deadline_exceeded() {
                        return Err(e);
                    }
                    e.to_string()
                }
                Err(failure) => failure.to_string(),
            };
            tele::counter_add("flow.tiles_degraded", 1);
            if tele::enabled() {
                let mut span = tele::span(tele::names::DEGRADED);
                span.add_field("flow", self.flow);
                span.add_field("stage", label);
                span.add_field("tile", tile);
                span.add_field("error", error.as_str());
            }
            self.degraded.push(DegradedTile {
                stage: label.to_string(),
                tile,
                error,
            });
            solved.push((restrict(mask, partition.tile(tile)), 0.0));
        }
        Ok(solved)
    }
}

/// The fine-level (scale 1) tiles of one flow run: what every fine, ECO
/// fine and refine tile solve reads besides the current layout.
pub(crate) struct FineTiles<'a> {
    pub config: &'a ExperimentConfig,
    pub bank: &'a LithoBank,
    pub solver: &'a dyn TileSolver,
    pub partition: &'a Partition,
    /// The whole-clip target; a tile solve converts only its own crop.
    pub target: &'a BitGrid,
}

impl FineTiles<'_> {
    /// The weighted-smoothing assembly of the fine stages (Eq. (14)).
    pub(crate) fn blend(&self) -> AssemblyMode {
        if self.config.blend_band == 0 {
            AssemblyMode::weighted_default(self.partition)
        } else {
            AssemblyMode::Weighted {
                band: self.config.blend_band,
            }
        }
    }

    /// Solves tile `i` for `iterations`, warm-started from its crop of
    /// `mask`: between Schwarz stages the margins carry the neighbours'
    /// latest solutions (the boundary condition Eq. (11)). `gentle` selects
    /// the refine pass's small learning rate over the fine stages'.
    pub(crate) fn solve(
        &self,
        mask: &RealGrid,
        i: usize,
        iterations: usize,
        gentle: bool,
    ) -> Result<(RealGrid, f64), CoreError> {
        let schedule = &self.config.schedule;
        let tile = self.partition.tile(i);
        let tile_target = self.target.crop(tile.rect).to_real();
        let tile_init = restrict(mask, tile);
        let ctx = SolveContext {
            bank: self.bank,
            n: self.partition.config().tile,
            scale: 1,
        };
        let request = SolveRequest {
            target: &tile_target,
            initial: &tile_init,
            iterations,
            lr_scale: if gentle {
                schedule.refine_lr_scale
            } else {
                schedule.fine_lr_scale
            },
            warm: true,
        };
        let (outcome, elapsed) =
            trace::timed_tile(i, || Ok::<_, CoreError>(self.solver.solve(&ctx, &request)?))?;
        Ok((outcome.mask, elapsed))
    }
}

/// The multi-colour multiplicative Schwarz refine: tiles passing `resolve`
/// are re-solved colour by colour with a small learning rate; same-colour
/// tiles never overlap and run in parallel, and `mask` is updated between
/// colours so later colours see earlier results. Stage labels are
/// `"{prefix}refine color k"`; colours with no tile to solve are skipped.
pub(crate) fn refine_pass(
    tiles: &FineTiles<'_>,
    prefix: &str,
    resolve: impl Fn(usize) -> bool,
    mask: &mut RealGrid,
    recovering: &mut Recovering<'_>,
) -> Result<Vec<StageTiming>, CoreError> {
    let partition = tiles.partition;
    let iterations = tiles.config.schedule.refine_iterations;
    // Multiplicative replacement over the extended core: later colours
    // re-author the boundary bands consistently instead of averaging into
    // them.
    let AssemblyMode::Weighted { band: margin } = tiles.blend() else {
        unreachable!("the fine stages blend with a weighted ramp");
    };
    let replace = TileWeights::new(partition, AssemblyMode::ExtendedCore { margin });
    let mut stages = Vec::new();
    for (color, group) in multi_coloring(partition).groups().into_iter().enumerate() {
        let group: Vec<usize> = group.into_iter().filter(|&i| resolve(i)).collect();
        if group.is_empty() {
            continue;
        }
        let label = format!("{prefix}refine color {}", color + 1);
        let stage = trace::stage(label.clone());
        // A degraded refine tile keeps its fine-stage mask: feeding its
        // current crop back through the weighted update is a no-op.
        let solved = recovering.solve(&label, partition, mask, &group, |i| {
            tiles.solve(mask, i, iterations, true)
        })?;
        let ((), timing) = stage.finish(solved, |masks| {
            for (new_mask, &i) in masks.iter().zip(&group) {
                replace.update(mask, i, new_mask)?;
            }
            Ok::<_, CoreError>(())
        })?;
        stages.push(timing);
    }
    Ok(stages)
}
