//! End-to-end contract of the incremental (ECO) re-solve: a single-tile
//! edit re-solves exactly the dirty set (edited tile ∪ overlap neighbours),
//! reuses every clean tile verbatim, and leaves clean cores bit-identical
//! to the base solve.

use std::collections::BTreeSet;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

use ilt_core::incremental::{run_and_store, run_incremental_in};
use ilt_core::ExperimentConfig;
use ilt_grid::{BitGrid, Rect};
use ilt_layout::generate_clip;
use ilt_litho::{LithoBank, ResistModel};
use ilt_opt::{IltOutcome, OptError, PixelIlt, SolveContext, SolveRequest, TileSolver};
use ilt_store::MaskStore;
use ilt_tile::{Partition, TileExecutor};

fn flip_rect(layout: &BitGrid, rect: Rect) -> BitGrid {
    let mut edited = layout.clone();
    for y in rect.y0..rect.y1 {
        for x in rect.x0..rect.x1 {
            let (x, y) = (x as usize, y as usize);
            edited.set(x, y, 1 - layout.get(x, y));
        }
    }
    edited
}

struct Eco {
    base_mask: ilt_grid::RealGrid,
    outcome: ilt_core::IncrementalOutcome,
    partition: Partition,
}

fn run_single_tile_edit() -> Eco {
    let config = ExperimentConfig::test_tiny();
    let bank = LithoBank::new(config.optics, ResistModel::m1_default()).unwrap();
    let store = MaskStore::new(64 * 1024 * 1024, None);
    let executor = TileExecutor::sequential();
    let solver = PixelIlt::new();
    let base = generate_clip(&config.generator, 1);
    // An 8×8 flip deep inside tile 0's exclusive region (x, y < 32 belongs
    // to tile 0 only: tile 1 starts at x = 32).
    let edited = flip_rect(&base, Rect::new(10, 10, 18, 18));

    let base_flow = run_and_store(&config, &bank, &store, &base, &solver, &executor).unwrap();
    let outcome =
        run_incremental_in(&config, &bank, &store, &base, &edited, &solver, &executor).unwrap();
    let partition = Partition::new(config.clip, config.clip, config.partition).unwrap();
    Eco {
        base_mask: base_flow.mask,
        outcome,
        partition,
    }
}

#[test]
fn single_tile_edit_resolves_only_the_dirty_set() {
    let eco = run_single_tile_edit();
    let outcome = &eco.outcome;

    // Dirty set = edited tile 0 ∪ its overlap neighbours {1, 3, 4}.
    assert_eq!(outcome.diff.edited, vec![0]);
    let mut expected = vec![0usize];
    expected.extend(eco.partition.neighbors(0));
    expected.sort_unstable();
    assert_eq!(outcome.diff.dirty, expected);
    assert_eq!(outcome.diff.dirty, vec![0, 1, 3, 4]);

    // Exactly the dirty set re-solves; the other five tiles are reused.
    assert_eq!(outcome.tiles_resolved, 4);
    assert_eq!(outcome.tiles_reused, 5);
    assert!((outcome.hit_ratio() - 5.0 / 9.0).abs() < 1e-12);

    // Every store lookup hit: clean tiles under their unchanged content
    // keys, dirty tiles warm-started under their base keys.
    assert_eq!(outcome.store_hits, 9);
    assert_eq!(outcome.store_misses, 0);

    // The warm stages ran tile solves for the dirty set only.
    for label in ["eco fine stage 1", "eco fine stage 2"] {
        let stage = outcome
            .flow
            .stages
            .iter()
            .find(|s| s.label == label)
            .unwrap_or_else(|| panic!("missing stage {label}"));
        assert_eq!(stage.tile_seconds.len(), 4, "{label}");
    }
    let refined: usize = outcome
        .flow
        .stages
        .iter()
        .filter(|s| s.label.starts_with("eco refine"))
        .map(|s| s.tile_seconds.len())
        .sum();
    assert_eq!(refined, 4, "refine covers each dirty tile exactly once");
    assert!(outcome.flow.name.starts_with("ours-eco:"));
    assert!(outcome.flow.degraded.is_empty());
}

#[test]
fn clean_cores_are_bit_identical_to_the_base_solve() {
    let eco = run_single_tile_edit();
    // Tile 8 (bottom-right) is clean and none of the dirty tiles' rects
    // reach its exclusive region (dirty rects end at x,y = 96... tile 4's
    // rect is 32..96 in both axes; tile 8's exclusive pixels at >= 96+8
    // stay clear of every dirty extended core).
    let mask = &eco.outcome.flow.mask;
    for y in 104..128 {
        for x in 104..128 {
            assert_eq!(
                mask.get(x, y),
                eco.base_mask.get(x, y),
                "clean pixel ({x},{y}) drifted from the base solve"
            );
        }
    }
}

#[test]
fn repeated_edits_on_one_store_are_bit_identical() {
    // The store holds the base solve; a re-solve must not replace those
    // entries, or each repeat would warm-start from the previous result.
    let config = ExperimentConfig::test_tiny();
    let bank = LithoBank::new(config.optics, ResistModel::m1_default()).unwrap();
    let store = MaskStore::new(64 * 1024 * 1024, None);
    let (executor, solver) = (TileExecutor::sequential(), PixelIlt::new());
    let base = generate_clip(&config.generator, 1);
    let edited = flip_rect(&base, Rect::new(10, 10, 18, 18));
    run_and_store(&config, &bank, &store, &base, &solver, &executor).unwrap();
    let run = || {
        run_incremental_in(&config, &bank, &store, &base, &edited, &solver, &executor)
            .unwrap()
            .flow
            .mask
    };
    let (first, second) = (run(), run());
    assert!(first.as_slice() == second.as_slice());
}

#[test]
fn no_change_edit_reuses_everything() {
    let config = ExperimentConfig::test_tiny();
    let bank = LithoBank::new(config.optics, ResistModel::m1_default()).unwrap();
    let store = MaskStore::new(64 * 1024 * 1024, None);
    let executor = TileExecutor::sequential();
    let solver = PixelIlt::new();
    let base = generate_clip(&config.generator, 1);
    let base_flow = run_and_store(&config, &bank, &store, &base, &solver, &executor).unwrap();
    let outcome =
        run_incremental_in(&config, &bank, &store, &base, &base, &solver, &executor).unwrap();
    assert_eq!(outcome.tiles_resolved, 0);
    assert_eq!(outcome.tiles_reused, 9);
    assert_eq!(outcome.diff.changed_pixels, 0);
    // Reassembling the reused crops reproduces the base mask (exactly in
    // exclusive cores, to rounding in the partition-of-unity blend bands).
    for (a, b) in outcome
        .flow
        .mask
        .as_slice()
        .iter()
        .zip(base_flow.mask.as_slice())
    {
        assert!((a - b).abs() < 1e-12, "reassembled {a} vs base {b}");
    }
}

#[test]
fn cold_store_still_produces_a_full_solve() {
    // With an empty store, every tile misses and re-solves: slower, but the
    // flow still completes and covers the full clip.
    let config = ExperimentConfig::test_tiny();
    let bank = LithoBank::new(config.optics, ResistModel::m1_default()).unwrap();
    let store = MaskStore::new(64 * 1024 * 1024, None);
    let executor = TileExecutor::sequential();
    let solver = PixelIlt::new();
    let base = generate_clip(&config.generator, 1);
    let edited = flip_rect(&base, Rect::new(10, 10, 18, 18));
    let outcome =
        run_incremental_in(&config, &bank, &store, &base, &edited, &solver, &executor).unwrap();
    assert_eq!(outcome.tiles_resolved, 9, "all tiles miss on a cold store");
    assert_eq!(outcome.tiles_reused, 0);
    assert_eq!(outcome.store_misses, 9);
    assert_eq!(outcome.flow.mask.width(), config.clip);
}

/// A pixel solver that makes each fine-stage solve of the first stage wait —
/// bounded — until a second one is in flight beside it, so the test forces
/// the interleaving it checks instead of hoping the scheduler produces it.
struct Rendezvous {
    inner: PixelIlt,
    /// Fine-stage solves per stage (the size of the re-solve set).
    per_stage: usize,
    /// The schedule's refine learning-rate scale, which marks refine solves.
    refine_lr_scale: f64,
    /// `(started, in flight now, most in flight during the first stage)`.
    state: Mutex<(usize, usize, usize)>,
    joined: Condvar,
}

impl TileSolver for Rendezvous {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn solve(
        &self,
        ctx: &SolveContext<'_>,
        request: &SolveRequest<'_>,
    ) -> Result<IltOutcome, OptError> {
        // Refine solves run at the refine rate; the fine stages do not.
        if request.lr_scale == self.refine_lr_scale {
            return self.inner.solve(ctx, request);
        }
        {
            let mut state = self.state.lock().unwrap();
            state.0 += 1;
            state.1 += 1;
            if state.0 <= self.per_stage {
                state.2 = state.2.max(state.1);
                self.joined.notify_all();
                let _ = self
                    .joined
                    .wait_timeout_while(state, Duration::from_secs(2), |s| s.2 < 2)
                    .unwrap();
            }
        }
        let outcome = self.inner.solve(ctx, request);
        self.state.lock().unwrap().1 -= 1;
        outcome
    }
}

#[test]
fn corner_edit_resolves_its_dirty_tiles_concurrently() {
    // A corner edit's dirty tiles {0, 1, 3, 4} are pairwise overlap
    // neighbours, so each has its own colour: solving the ECO fine stage
    // band by band would hand the executor one tile at a time and idle the
    // second worker. The whole re-solve set must go out in one call.
    let config = ExperimentConfig::test_tiny();
    let bank = LithoBank::new(config.optics, ResistModel::m1_default()).unwrap();
    let store = MaskStore::new(64 * 1024 * 1024, None);
    let executor = TileExecutor::new(2);
    let base = generate_clip(&config.generator, 1);
    let edited = flip_rect(&base, Rect::new(10, 10, 18, 18));
    run_and_store(&config, &bank, &store, &base, &PixelIlt::new(), &executor).unwrap();

    let solver = Rendezvous {
        inner: PixelIlt::new(),
        per_stage: 4,
        refine_lr_scale: config.schedule.refine_lr_scale,
        state: Mutex::new((0, 0, 0)),
        joined: Condvar::new(),
    };
    let outcome =
        run_incremental_in(&config, &bank, &store, &base, &edited, &solver, &executor).unwrap();
    assert_eq!(outcome.diff.dirty, vec![0, 1, 3, 4]);
    let partition = Partition::new(config.clip, config.clip, config.partition).unwrap();
    let coloring = ilt_tile::multi_coloring(&partition);
    let colors: BTreeSet<usize> = outcome
        .diff
        .dirty
        .iter()
        .map(|&i| coloring.color(i))
        .collect();
    assert_eq!(
        colors.len(),
        4,
        "every dirty tile sits in its own colour band"
    );

    let (started, _, most_in_first_stage) = *solver.state.lock().unwrap();
    assert_eq!(started, 2 * 4, "two fine stages over four dirty tiles");
    assert!(
        most_in_first_stage >= 2,
        "eco fine stage 1 never had two solves in flight under two workers"
    );
}
