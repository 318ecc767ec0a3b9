//! The one stage driver every flow runs.
//!
//! Every phase of every flow is the same step: solve a set of tiles, then
//! fold the results into the layout. [`run_banded_stage`] is that step and
//! the only place a `stage` span opens. Its contract:
//!
//! - the caller hands it the stage's **solve set, already split into
//!   bands** in the order they fold: a partition's colour bands
//!   ([`Partition::bands`], computed once when the partition is built) for
//!   the cold coarse and fine stages, D&C and overlap-select; one band of
//!   the tiles to re-solve for a refine colour or an ECO stage; one band
//!   of windows for a heal line; the band `[0]` for full-chip;
//! - each band is solved by `solve_band`, which sees the sink by shared
//!   reference, so a sink may be the very layout the solves crop from
//!   (the refine pass, ECO's fine stages, stitch-and-heal);
//! - the band's payloads then go to `fold` by value, inside one `assembly`
//!   span per fold (which, on a colour-banded stage, records the bytes of
//!   solved masks the band holds as `resident_bytes`), and are dropped
//!   with it: a stage never holds more
//!   than one band;
//! - the stage's `tile_seconds` come back in ascending index order of the
//!   solve set, whatever order the bands fold in.
//!
//! Flows differ only in how a band's tiles are produced (plain `run` for the
//! baselines, which abort on the first tile error; [`Recovering::solve`]
//! for Ours and ECO, which degrade a failed tile to its pre-stage crop) and
//! in how a band folds ([`run_assembled_stage`] for every stage that
//! assembles a layout from scratch).
//!
//! An assembled stage's folds run on the tile workers too: each band is
//! split into disjoint ranges of layout rows, one per worker
//! ([`StreamingAssembler::push_band`]). The split is by pixels, not by
//! tiles, so a band is still folded and dropped before the next is solved
//! and every pixel still receives its additions in the partition's fold
//! order: the mask is bit-identical at any worker count.
//!
//! The fine-level pieces Ours and its incremental re-solve share also live
//! here: the warm-started fine tile solve ([`FineTiles::solve`]) and the
//! multi-colour multiplicative refine ([`refine_pass`]).

use ilt_grid::{BitGrid, RealGrid};
use ilt_litho::LithoBank;
use ilt_opt::{SolveContext, SolveRequest, TileSolver};
use ilt_telemetry as tele;
use ilt_tile::{restrict, AssemblyMode, Partition, StreamingAssembler, TileExecutor, TileWeights};

use crate::config::ExperimentConfig;
use crate::error::CoreError;
use crate::flows::{trace, DegradedTile, StageTiming};

/// Bytes of one solved `n`×`n` mask.
pub(crate) fn mask_bytes(n: usize) -> usize {
    n * n * std::mem::size_of::<f64>()
}

/// Runs one stage labelled `label` over `bands`, its solve set split into
/// bands in fold order (see the module docs for the contract).
///
/// `solve_band` receives the sink and a band's indices and returns one
/// `(payload, seconds)` pair per index, in the same order; `fold` folds the
/// band's `(index, payload)` pairs into the sink inside an `assembly` span
/// billed to the assembly profiling stage, whose duration the stage
/// reports as assembly seconds. The span records `held_bytes` per payload
/// as `resident_bytes`, the measure of the one-colour-band residency
/// bound: the colour-banded stages (coarse, fine, D&C, overlap-select)
/// pass it, every other stage `None`. Returns the sink and the stage's timing, `tile_seconds` in
/// ascending index order.
pub(crate) fn run_banded_stage<T, S>(
    label: &str,
    bands: &[Vec<usize>],
    held_bytes: Option<usize>,
    mut sink: S,
    mut solve_band: impl FnMut(&S, &[usize]) -> Result<Vec<(T, f64)>, CoreError>,
    mut fold: impl FnMut(&mut S, Vec<(usize, T)>) -> Result<(), CoreError>,
) -> Result<(S, StageTiming), CoreError> {
    // While the stage is open its tile spans nest under the span, and
    // allocations here and on the workers (which inherit the tag) bill to
    // the profiling stage the label names. Locals drop in reverse: the tag
    // closes before the span.
    let mut stage_span = tele::span(tele::names::STAGE);
    stage_span.add_field("label", label);
    let _stage_tag = ilt_prof::stage_scope(ilt_prof::Stage::from_label(label));
    let mut tile_seconds = Vec::new();
    let mut assembly_seconds = 0.0;
    for band in bands {
        let solved = solve_band(&sink, band)?;
        let mut payloads = Vec::with_capacity(band.len());
        for (&i, (payload, seconds)) in band.iter().zip(solved) {
            tile_seconds.push((i, seconds));
            payloads.push((i, payload));
        }
        let _tag = ilt_prof::stage_scope(ilt_prof::Stage::Assembly);
        let mut span = tele::span(tele::names::ASSEMBLY);
        if let Some(bytes) = held_bytes {
            span.add_field("resident_bytes", bytes * payloads.len());
        }
        fold(&mut sink, payloads)?;
        assembly_seconds += span.end();
    }
    tile_seconds.sort_by_key(|&(i, _)| i);
    let timing = StageTiming {
        label: label.to_string(),
        tile_seconds: tile_seconds
            .into_iter()
            .map(|(_, seconds)| seconds)
            .collect(),
        assembly_seconds,
    };
    Ok((sink, timing))
}

/// A stage over every tile of `partition`, band by colour band, whose masks
/// are assembled into a fresh layout by Eq. (6)
/// ([`AssemblyMode::Restricted`]) or Eq. (14) (weighted), each fold split
/// by rows over `executor`'s workers.
pub(crate) fn run_assembled_stage(
    label: &str,
    partition: &Partition,
    mode: AssemblyMode,
    executor: &TileExecutor,
    mut solve_band: impl FnMut(&[usize]) -> Result<Vec<(RealGrid, f64)>, CoreError>,
) -> Result<(RealGrid, StageTiming), CoreError> {
    let (assembler, timing) = run_banded_stage(
        label,
        partition.bands(),
        Some(mask_bytes(partition.config().tile)),
        assembler(partition, mode, executor),
        |_, band| solve_band(band),
        |assembler, band| {
            let band: Vec<(usize, &RealGrid)> = band.iter().map(|(i, mask)| (*i, mask)).collect();
            Ok(assembler.push_band(&band)?)
        },
    )?;
    Ok((assembler.finish()?, timing))
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
    for (color, band) in partition.bands().iter().enumerate() {
        let band: Vec<usize> = band.iter().copied().filter(|&i| resolve(i)).collect();
        if band.is_empty() {
            continue;
        }
        let label = format!("{prefix}refine color {}", color + 1);
        // A degraded refine tile keeps its fine-stage mask: feeding its
        // current crop back through the replacement is a no-op.
        let (_, timing) = run_banded_stage(
            &label,
            &[band],
            None,
            &mut *mask,
            |mask, band| {
                let mask: &RealGrid = mask;
                recovering.solve(&label, partition, mask, band, |i| {
                    tiles.solve(mask, i, iterations, true)
                })
            },
            |mask, solved| {
                for (i, new_mask) in solved {
                    replace.update(mask, i, &new_mask)?;
                }
                Ok(())
            },
        )?;
        stages.push(timing);
    }
    Ok(stages)
}
