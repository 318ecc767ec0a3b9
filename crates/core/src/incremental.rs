//! Incremental re-ILT: dirty-tile propagation and warm-started re-solve
//! (the ECO workflow).
//!
//! The Schwarz decomposition is local by construction: a layout edit can
//! only change the optimal mask inside the tiles it intersects and — through
//! the overlap boundary exchange of Eq. (11) — their overlap neighbours.
//! [`diff_layouts`] computes exactly that frontier: the *edited* set (tiles
//! whose rect contains a changed target pixel) and the *dirty* set (edited ∪
//! their [`Partition::neighbors`]). Everything else is *clean* and its final
//! mask from the base solve is still optimal, so [`run_incremental_in`]
//! reuses it verbatim from the mask store and re-solves only the dirty set,
//! warm-started from the base masks:
//!
//! 1. **Reuse**: every tile's slice of the *edited* target is hashed
//!    ([`ilt_store::tile_content_hash`]) and looked up. Clean tiles hit (the
//!    content is unchanged, so the key is the base key) and their stored
//!    masks are reassembled by the same weighted seam assembly the cold flow
//!    uses — overlapping crops of one layout agree exactly, so clean regions
//!    reproduce the base mask bit-for-bit.
//! 2. **Warm fine stages**: dirty tiles (plus any clean tile that missed,
//!    e.g. after eviction with no spill directory) re-solve, re-cropping
//!    from the assembled layout between stages exactly like the cold flow.
//!    The layout is updated **in place**: a full weighted assembly would
//!    feed every clean tile its own crop back, which the partition of unity
//!    makes the identity, so a stage instead adds
//!    `Σ_{j ∈ resolve} W_j ⊙ (M_j_new − R_j M_before_stage)`
//!    ([`ilt_tile::TileWeights::update_stage`]) — O(|resolve| · tile²) work,
//!    no clean-tile crop, no whole-clip buffer, and every pixel outside the
//!    re-solved tiles' weight supports keeps its bits.
//!    Overlap-only neighbours — same target, just moved boundary conditions
//!    — run the warm schedule, half the cold fine budget
//!    ([`Schedule::warm_fine_iterations`]), warm-started from the base
//!    final mask. Tiles whose *target* changed (and any tile whose lookup
//!    missed, whose init is a cold target crop) keep the full cold budget:
//!    the base mask optimises a different geometry there, so halving their
//!    iterations trades real quality for little time.
//! 3. **Warm refine**: the multi-colour multiplicative polish runs over the
//!    re-solved tiles only; clean tiles are never touched (no global
//!    threshold — the reused masks are already post-refine).
//!
//! Nothing is written back: the store keeps the base solve, so every edit
//! applied to one stored base — the same edit twice included — warm-starts
//! from the same masks and repeats bit for bit.
//!
//! [`Schedule::warm_fine_iterations`]: crate::Schedule::warm_fine_iterations

use std::collections::BTreeSet;

use ilt_grid::{BitGrid, RealGrid};
use ilt_litho::LithoBank;
use ilt_opt::TileSolver;
use ilt_store::{tile_content_hash, MaskStore, StoreKey};
use ilt_telemetry as tele;
use ilt_tile::{multi_coloring, Partition, Tile, TileExecutor, TileWeights};

use crate::config::ExperimentConfig;
use crate::error::CoreError;
use crate::flows::stage::{refine_pass, run_assembled_stage_lent, FineTiles, Recovering};
use crate::flows::{multigrid_schwarz, trace, FlowResult};

/// Store method tag for masks produced by the multigrid-Schwarz flow with
/// the pixel solver — the only flow the incremental path re-solves with.
pub const METHOD_OURS_PIXEL: &str = "ours:pixel";

/// The dirty-tile frontier of one layout edit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayoutDiff {
    /// Number of target pixels that differ between base and edited layout.
    pub changed_pixels: usize,
    /// Tiles whose rect contains at least one changed pixel, ascending.
    pub edited: Vec<usize>,
    /// Edited tiles plus their Schwarz-overlap neighbours (Eq. (11) `N_j`),
    /// ascending — the set whose masks the edit can invalidate.
    pub dirty: Vec<usize>,
}

/// Diffs two same-sized target layouts against a partition.
///
/// # Panics
///
/// Panics if the layouts' dimensions differ or do not cover the partition.
pub fn diff_layouts(partition: &Partition, base: &BitGrid, edited: &BitGrid) -> LayoutDiff {
    assert_eq!(
        (base.width(), base.height()),
        (edited.width(), edited.height()),
        "base and edited layouts must have identical dimensions"
    );
    let (width, tile) = (base.width(), partition.config().tile);
    assert!(
        width >= partition.width() && base.height() >= partition.height(),
        "layouts must cover the partition"
    );
    // One pass over the rows: a changed pixel marks the tile columns
    // covering its x, and the row's marks go to the tile rows covering y.
    let nx = partition.tiles_x();
    let origins_x: Vec<usize> = (0..nx)
        .map(|c| partition.tile(c).rect.x0 as usize)
        .collect();
    let origins_y: Vec<usize> = (0..partition.tiles_y())
        .map(|r| partition.tile(r * nx).rect.y0 as usize)
        .collect();
    let mut changed_pixels = 0usize;
    let mut tile_edited = vec![false; partition.tiles().len()];
    let mut column_edited = vec![false; nx];
    let rows = base
        .as_slice()
        .chunks_exact(width)
        .zip(edited.as_slice().chunks_exact(width));
    for (y, (a, b)) in rows.enumerate() {
        if a == b {
            continue;
        }
        column_edited.fill(false);
        for (x, _) in a.iter().zip(b).enumerate().filter(|(_, (p, q))| p != q) {
            changed_pixels += 1;
            for (hit, &x0) in column_edited.iter_mut().zip(&origins_x) {
                *hit |= (x0..x0 + tile).contains(&x);
            }
        }
        for (r, _) in origins_y
            .iter()
            .enumerate()
            .filter(|(_, &y0)| (y0..y0 + tile).contains(&y))
        {
            for (hit, &column) in tile_edited[r * nx..][..nx].iter_mut().zip(&column_edited) {
                *hit |= column;
            }
        }
    }
    let edited_tiles: Vec<usize> = (0..tile_edited.len()).filter(|&i| tile_edited[i]).collect();
    let mut dirty: BTreeSet<usize> = edited_tiles.iter().copied().collect();
    for &i in &edited_tiles {
        dirty.extend(partition.neighbors(i));
    }
    LayoutDiff {
        changed_pixels,
        edited: edited_tiles,
        dirty: dirty.into_iter().collect(),
    }
}

/// Result of an incremental re-solve: the flow output plus the reuse
/// accounting the report and serve layers surface.
#[derive(Debug, Clone)]
pub struct IncrementalOutcome {
    /// The warm flow: final mask, stage timings, wall clock, degradations.
    pub flow: FlowResult,
    /// The dirty frontier that drove the re-solve.
    pub diff: LayoutDiff,
    /// Tiles whose stored mask was reused verbatim.
    pub tiles_reused: usize,
    /// Tiles re-solved (the dirty set plus any clean store miss).
    pub tiles_resolved: usize,
    /// Store lookups that hit during this run (reuse + warm-start).
    pub store_hits: usize,
    /// Store lookups that missed during this run.
    pub store_misses: usize,
}

impl IncrementalOutcome {
    /// Fraction of the layout served from the store:
    /// `tiles_reused / total tiles`. This is the locality headline — for an
    /// edit confined to tile `j` of a `T`-tile M×N partition it is
    /// `(T - 1 - |neighbors(j)|) / T` (the edited tile and its overlap
    /// neighbours re-solve, everything else is reused). A corner edit on a
    /// uniform 3×3 grid has 3 neighbours, hence the 5/9 of the ECO smoke
    /// drill; larger grids reuse proportionally more.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.tiles_reused + self.tiles_resolved;
        if total == 0 {
            0.0
        } else {
            self.tiles_reused as f64 / total as f64
        }
    }
}

/// Per-tile store key over `target`'s content.
fn tile_key(target: &BitGrid, partition: &Partition, index: usize, config_fp: u64) -> StoreKey {
    StoreKey::new(
        tile_content_hash(target, partition.tile(index).rect),
        config_fp,
        METHOD_OURS_PIXEL,
    )
}

/// Patches an edited tile's warm-start mask: pixels whose target changed
/// are snapped to their *new* target value. The base mask is near-optimal
/// everywhere the targets agree, so after the patch the warm solver only
/// has to smooth the seam of the edit instead of discovering it by
/// gradient descent from a stale geometry.
fn patch_changed_pixels(mask: &mut RealGrid, tile: &Tile, base: &BitGrid, edited: &BitGrid) {
    let rect = tile.rect;
    for y in rect.y0..rect.y1 {
        for x in rect.x0..rect.x1 {
            let (xu, yu) = (x as usize, y as usize);
            let new = edited.get(xu, yu);
            if base.get(xu, yu) != new {
                mask.set(
                    (x - rect.x0) as usize,
                    (y - rect.y0) as usize,
                    f64::from(new),
                );
            }
        }
    }
}

/// Stores every tile's crop of a solved full-clip mask under the target's
/// content keys. Returns the number of tiles stored.
///
/// # Errors
///
/// Returns [`CoreError`] on partitioning failure.
pub fn store_tiles(
    store: &MaskStore,
    config: &ExperimentConfig,
    target: &BitGrid,
    mask: &RealGrid,
) -> Result<usize, CoreError> {
    let partition = Partition::new(target.width(), target.height(), config.partition)?;
    let config_fp = config.fingerprint();
    for i in 0..partition.tiles().len() {
        let key = tile_key(target, &partition, i, config_fp);
        store.put_crop(key, mask, partition.tile(i).rect);
    }
    Ok(partition.tiles().len())
}

/// Runs the cold multigrid-Schwarz flow and populates the store with the
/// final mask's tile crops, making the result warm-startable.
///
/// # Errors
///
/// Propagates flow failures.
pub fn run_and_store(
    config: &ExperimentConfig,
    bank: &LithoBank,
    store: &MaskStore,
    target: &BitGrid,
    solver: &dyn TileSolver,
    executor: &TileExecutor,
) -> Result<FlowResult, CoreError> {
    let flow = multigrid_schwarz(config, bank, target, solver, executor)?;
    store_tiles(store, config, target, &flow.mask)?;
    Ok(flow)
}

/// Incremental re-solve of `edited` given that `base` was previously solved
/// (and stored) under the same config. See the module docs for the
/// three-phase structure; `store` is only read.
///
/// # Errors
///
/// Returns [`CoreError`] on partitioning, solver, or assembly failure.
///
/// # Panics
///
/// Panics if `config` is inconsistent or the layouts' dimensions differ.
pub fn run_incremental_in(
    config: &ExperimentConfig,
    bank: &LithoBank,
    store: &MaskStore,
    base: &BitGrid,
    edited: &BitGrid,
    solver: &dyn TileSolver,
    executor: &TileExecutor,
) -> Result<IncrementalOutcome, CoreError> {
    run_incremental_lent(
        config,
        bank,
        store,
        base,
        edited,
        solver,
        executor,
        &mut Vec::new(),
    )
}

/// [`run_incremental_in`] with its assembler's pixel-sum accumulator in
/// storage the caller lends: the flow builds exactly one assembler, so only
/// a caller that outlives the operation ([`crate::Session`]) can spare it
/// the allocation.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_incremental_lent(
    config: &ExperimentConfig,
    bank: &LithoBank,
    store: &MaskStore,
    base: &BitGrid,
    edited: &BitGrid,
    solver: &dyn TileSolver,
    executor: &TileExecutor,
    coverage: &mut Vec<f64>,
) -> Result<IncrementalOutcome, CoreError> {
    config.validate();
    let name = format!("ours-eco:{}", solver.name());
    let fspan = trace::flow_span(&name);
    let partition = Partition::new(edited.width(), edited.height(), config.partition)?;
    let config_fp = config.fingerprint();
    let tile_count = partition.tiles().len();
    let tiles = FineTiles {
        config,
        bank,
        solver,
        partition: &partition,
        target: edited,
    };
    let blend = tiles.blend();
    let mut recovering = Recovering::new(&name, executor);
    let mut stages = Vec::new();
    let mut store_hits = 0usize;
    let mut store_misses = 0usize;

    let diff = diff_layouts(&partition, base, edited);
    let dirty: BTreeSet<usize> = diff.dirty.iter().copied().collect();

    // Phase 1: reuse. Look up every tile under its *edited* content key;
    // clean hits are reused verbatim, everything else joins the re-solve
    // set. Dirty tiles warm-start from the *base* content key (the mask the
    // base solve stored for the geometry they used to contain); a miss
    // falls back to the edited target crop.
    let mut resolve: Vec<usize> = Vec::new();
    // Tiles that need the *full* fine budget: their target changed (the
    // base mask optimises a different geometry there) or their lookup
    // missed (the init is a cold target crop, not a converged mask).
    // Overlap-only neighbours keep the halved warm budget — their targets
    // are identical, only the boundary conditions moved.
    let edited_tiles: BTreeSet<usize> = diff.edited.iter().copied().collect();
    let mut cold_budget: BTreeSet<usize> = edited_tiles.clone();
    let mut lookup = |i: usize| {
        let key = if dirty.contains(&i) {
            resolve.push(i);
            tile_key(base, &partition, i, config_fp)
        } else {
            tile_key(edited, &partition, i, config_fp)
        };
        match store.get(&key) {
            Some(mut mask) => {
                store_hits += 1;
                if edited_tiles.contains(&i) {
                    patch_changed_pixels(&mut mask, partition.tile(i), base, edited);
                }
                mask
            }
            None => {
                store_misses += 1;
                if !dirty.contains(&i) {
                    resolve.push(i);
                }
                cold_budget.insert(i);
                edited.crop(partition.tile(i).rect).to_real()
            }
        }
    };
    // The lookups stream straight into the assembler one colour band at a
    // time: a reused crop is resident only while its band folds.
    let (mut mask, timing) =
        run_assembled_stage_lent("eco reuse", &partition, blend, coverage, |band| {
            band.iter()
                .map(|&i| trace::timed_tile(i, || Ok(lookup(i))))
                .collect()
        })?;
    resolve.sort_unstable();
    let tiles_resolved = resolve.len();
    let tiles_reused = tile_count - tiles_resolved;
    stages.push(timing);

    tele::counter_add("incremental.tiles_reused", tiles_reused as u64);
    tele::counter_add("incremental.tiles_resolved", tiles_resolved as u64);

    // Phase 2: warm fine stages over the re-solve set, with the cold flow's
    // assemble-and-re-crop boundary exchange applied in place: a clean
    // tile would contribute its current crop, for which the weighted
    // assembly is the identity, so only the re-solved tiles' differences
    // against the pre-stage layout are blended in (`update_stage`), in the
    // assembler's canonical order. A stage costs O(|resolve| · tile²) and
    // never reads or writes a pixel outside the re-solved tiles' weight
    // supports. The whole re-solve set goes to the executor in one call
    // rather than band by band: an edit's dirty tiles are mutual overlap
    // neighbours, so each sits in a different colour band and banding would
    // serialise them.
    let weights = TileWeights::new(&partition, blend);
    let mut fold_rank = vec![0usize; tile_count];
    for (rank, i) in multi_coloring(&partition)
        .groups()
        .into_iter()
        .flatten()
        .enumerate()
    {
        fold_rank[i] = rank;
    }
    for fine_stage in 0..config.schedule.fine_stages {
        let label = format!("eco fine stage {}", fine_stage + 1);
        let stage = trace::stage(label.clone());
        // A degraded tile comes back as its own pre-stage crop: a zero
        // difference, so the update leaves it untouched.
        let solved = recovering.solve(&label, &partition, &mask, &resolve, |i| {
            let iterations = if cold_budget.contains(&i) {
                config.schedule.fine_per_stage(fine_stage)
            } else {
                config.schedule.warm_per_stage(fine_stage)
            };
            tiles.solve(&mask, i, iterations, false)
        })?;
        let ((), timing) = stage.finish(solved, |new_masks| {
            let mut updates: Vec<(usize, RealGrid)> =
                resolve.iter().copied().zip(new_masks).collect();
            updates.sort_by_key(|&(i, _)| fold_rank[i]);
            weights.update_stage(&mut mask, updates)
        })?;
        stages.push(timing);
    }

    // Phase 3: warm multi-colour refine over the re-solve set only. No
    // global threshold first: the reused masks are post-refine already, and
    // re-thresholding would perturb clean tiles the edit never touched.
    stages.extend(refine_pass(
        &tiles,
        "eco ",
        |i| resolve.contains(&i),
        &mut mask,
        &mut recovering,
    )?);

    let degraded = recovering.degraded;
    let wall_seconds = fspan.end();
    Ok(IncrementalOutcome {
        flow: FlowResult {
            name,
            mask,
            stages,
            wall_seconds,
            degraded,
        },
        diff,
        tiles_reused,
        tiles_resolved,
        store_hits,
        store_misses,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ilt_grid::Rect;
    use ilt_tile::PartitionConfig;

    fn partition_3x3() -> Partition {
        Partition::new(
            128,
            128,
            PartitionConfig {
                tile: 64,
                overlap: 32,
            },
        )
        .unwrap()
    }

    #[test]
    fn identical_layouts_have_empty_diff() {
        let partition = partition_3x3();
        let layout = BitGrid::from_fn(128, 128, |x, y| u8::from((x + y) % 3 == 0));
        let diff = diff_layouts(&partition, &layout, &layout);
        assert_eq!(diff.changed_pixels, 0);
        assert!(diff.edited.is_empty());
        assert!(diff.dirty.is_empty());
    }

    #[test]
    fn corner_edit_marks_tile_and_overlap_neighbors_dirty() {
        // Pixel (5,5) lies only in tile 0 (tiles are 64 wide at stride 32).
        let partition = partition_3x3();
        let base = BitGrid::new(128, 128, 0);
        let mut edited = base.clone();
        edited.set(5, 5, 1);
        let diff = diff_layouts(&partition, &base, &edited);
        assert_eq!(diff.changed_pixels, 1);
        assert_eq!(diff.edited, vec![0]);
        // Dirty = edited ∪ overlap neighbours of tile 0 = {0, 1, 3, 4}.
        let mut expected = vec![0usize];
        expected.extend(partition.neighbors(0));
        expected.sort_unstable();
        assert_eq!(diff.dirty, expected);
        assert_eq!(diff.dirty, vec![0, 1, 3, 4]);
    }

    #[test]
    fn center_edit_dirties_every_tile() {
        // The centre pixel lies in the overlap of several tiles; its tile's
        // neighbour set covers the whole 3×3 grid.
        let partition = partition_3x3();
        let base = BitGrid::new(128, 128, 0);
        let mut edited = base.clone();
        edited.fill_rect(Rect::new(60, 60, 68, 68), 1);
        let diff = diff_layouts(&partition, &base, &edited);
        assert_eq!(diff.dirty, (0..9).collect::<Vec<_>>());
    }

    #[test]
    fn edit_in_exclusive_core_of_edge_tile() {
        // Pixel (64, 5): x=64 lies in tiles at columns 1 and 2... columns
        // with x0 <= 64 < x0+64 → x0 ∈ {32, 64} (cols 1, 2); y=5 → row 0.
        let partition = partition_3x3();
        let base = BitGrid::new(128, 128, 0);
        let mut edited = base.clone();
        edited.set(64, 5, 1);
        let diff = diff_layouts(&partition, &base, &edited);
        assert_eq!(diff.edited, vec![1, 2]);
        // Neighbours of 1 and 2 span all of rows 0-1.
        assert_eq!(diff.dirty, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn clamped_grid_frontier_uses_generalized_neighbors() {
        // 184×120 at tile 64 / stride 32 clamps both axes (x origins end at
        // 120, y origins at 56), yielding a non-square 5×3 grid whose last
        // row/column overlap their predecessors by more than the nominal
        // stride. A corner edit must dirty exactly the edited tile plus its
        // generalized M×N overlap neighbours, not a hardcoded 3×3 pattern.
        let partition = Partition::new(
            184,
            120,
            PartitionConfig {
                tile: 64,
                overlap: 32,
            },
        )
        .unwrap();
        let base = BitGrid::new(184, 120, 0);
        let mut edited = base.clone();
        edited.set(2, 2, 1);
        let diff = diff_layouts(&partition, &base, &edited);
        assert_eq!(diff.edited, vec![0]);
        let mut expected = vec![0usize];
        expected.extend(partition.neighbors(0));
        expected.sort_unstable();
        assert_eq!(diff.dirty, expected);
        // Clamped columns overlap more than the nominal stride, but the
        // frontier is still "tiles whose rects overlap tile 0".
        for &i in &diff.dirty {
            assert!(
                i == 0 || partition.tile(i).rect.overlaps(partition.tile(0).rect),
                "tile {i} in the frontier without overlapping the edit"
            );
        }
    }

    #[test]
    fn an_accumulator_kept_between_operations_leaks_nothing() {
        let config = ExperimentConfig::test_tiny();
        let bank = LithoBank::new(config.optics, config.resist).unwrap();
        let (solver, executor) = (ilt_opt::PixelIlt::new(), TileExecutor::sequential());
        let base = ilt_layout::generate_clip(&config.generator, 1);
        let store = MaskStore::new(64 << 20, None);
        run_and_store(&config, &bank, &store, &base, &solver, &executor).unwrap();
        let mut coverage = Vec::new();
        // The second edit assembles in what the first left behind.
        for corner in [10, 40] {
            let mut edited = base.clone();
            let rect = Rect::new(corner, corner, corner + 8, corner + 8);
            edited.fill_rect(rect, 1 - base.get(corner as usize, corner as usize));
            let run = |store: &MaskStore, coverage: &mut Vec<f64>| {
                run_incremental_lent(
                    &config, &bank, store, &base, &edited, &solver, &executor, coverage,
                )
                .unwrap()
                .flow
                .mask
            };
            let fresh = run(&store, &mut Vec::new());
            let kept = run(&store, &mut coverage);
            assert!(kept.as_slice() == fresh.as_slice());
        }
    }

    #[test]
    #[should_panic(expected = "identical dimensions")]
    fn dimension_mismatch_rejected() {
        let partition = partition_3x3();
        let base = BitGrid::new(128, 128, 0);
        let edited = BitGrid::new(64, 64, 0);
        diff_layouts(&partition, &base, &edited);
    }
}
