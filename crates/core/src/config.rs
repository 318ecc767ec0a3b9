//! Experiment configuration shared by all flows and the bench harness.

use ilt_layout::GeneratorConfig;
use ilt_litho::{OpticsConfig, ResistModel};
use ilt_metrics::StitchConfig;
use ilt_tile::PartitionConfig;

/// The iteration schedule of the paper's Section 4.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Schedule {
    /// Iterations for each divide-and-conquer / full-chip solve (paper:
    /// 100).
    pub baseline_iterations: usize,
    /// Coarse-grid ILT iterations at scale `s = 2` (paper: 60).
    pub coarse_iterations: usize,
    /// Total fine-grid ILT iterations (paper: 40)...
    pub fine_iterations: usize,
    /// ...split into this many additive-Schwarz stages with assembly and
    /// boundary exchange in between (paper: 2).
    pub fine_stages: usize,
    /// Learning-rate multiplier of the fine-grid stages. Warm starts from
    /// the coarse solution need gentler steps than cold starts.
    pub fine_lr_scale: f64,
    /// Refine-ILT iterations per tile in the multi-colour pass (paper: 4).
    pub refine_iterations: usize,
    /// Learning-rate multiplier of the refine pass ("relatively small").
    pub refine_lr_scale: f64,
    /// Iterations per healing window in the stitch-and-heal baseline \[6\].
    pub heal_iterations: usize,
}

impl Schedule {
    /// The paper's schedule.
    pub fn paper_default() -> Self {
        Schedule {
            baseline_iterations: 100,
            coarse_iterations: 60,
            fine_iterations: 40,
            fine_stages: 2,
            fine_lr_scale: 0.4,
            refine_iterations: 4,
            refine_lr_scale: 0.1,
            heal_iterations: 20,
        }
    }

    /// A drastically shortened schedule for unit tests.
    pub fn test_tiny() -> Self {
        Schedule {
            baseline_iterations: 8,
            coarse_iterations: 5,
            fine_iterations: 4,
            fine_stages: 2,
            fine_lr_scale: 0.4,
            refine_iterations: 1,
            refine_lr_scale: 0.1,
            heal_iterations: 2,
        }
    }

    /// Validates the schedule.
    ///
    /// # Panics
    ///
    /// Panics if any stage count is zero or the stage split does not divide
    /// the fine budget.
    pub fn validate(&self) {
        assert!(self.baseline_iterations > 0, "baseline iterations zero");
        assert!(self.coarse_iterations > 0, "coarse iterations zero");
        assert!(self.fine_stages > 0, "fine stages zero");
        assert!(
            self.fine_iterations >= self.fine_stages,
            "fewer fine iterations than stages"
        );
        assert!(self.refine_lr_scale > 0.0, "refine lr scale zero");
        assert!(self.fine_lr_scale > 0.0, "fine lr scale zero");
    }

    /// Fine iterations per stage (last stage absorbs the remainder).
    pub fn fine_per_stage(&self, stage: usize) -> usize {
        Self::split(self.fine_iterations, self.fine_stages, stage)
    }

    /// Total fine-grid iterations for a warm-started (incremental) re-solve:
    /// half the cold budget, floored at one iteration per stage. Warm starts
    /// begin at the base layout's *final* mask rather than a coarse-grid
    /// promotion, so they sit far closer to the optimum — the observation
    /// ILILT (Yang & Ren 2024) makes systematic.
    pub fn warm_fine_iterations(&self) -> usize {
        (self.fine_iterations / 2).max(self.fine_stages)
    }

    /// Warm fine iterations for one stage (last stage absorbs the
    /// remainder), mirroring [`Schedule::fine_per_stage`].
    pub fn warm_per_stage(&self, stage: usize) -> usize {
        Self::split(self.warm_fine_iterations(), self.fine_stages, stage)
    }

    fn split(total: usize, stages: usize, stage: usize) -> usize {
        let base = total / stages;
        if stage + 1 == stages {
            total - base * (stages - 1)
        } else {
            base
        }
    }
}

impl Default for Schedule {
    fn default() -> Self {
        Schedule::paper_default()
    }
}

/// Everything a flow needs to know about the experimental setup.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentConfig {
    /// Clip edge length in pixels (paper: 4096; default here: 256 — see the
    /// scale-mapping table in `DESIGN.md`).
    pub clip: usize,
    /// Tile partitioning (tile edge must equal the optics' base grid).
    pub partition: PartitionConfig,
    /// Optical system.
    pub optics: OpticsConfig,
    /// Resist model.
    pub resist: ResistModel,
    /// Synthetic layout generator settings.
    pub generator: GeneratorConfig,
    /// Iteration schedule.
    pub schedule: Schedule,
    /// Stitch-loss metric settings.
    pub stitch: StitchConfig,
    /// Weighted-smoothing blend band `D` in pixels (0 selects the default,
    /// a quarter of the overlap).
    pub blend_band: usize,
    /// Largest multigrid scale factor `s_max` (paper: 2). The coarse
    /// hierarchy has `log2(s_max) + 1` levels: scales `s_max, s_max/2, …, 2`
    /// then the fine level; the coarsest level is solved directly (it is a
    /// single tile whenever `clip <= s_max * tile`).
    pub s_max: usize,
    /// Worker threads for per-tile execution.
    pub workers: usize,
}

impl ExperimentConfig {
    /// The default benchmark setup: the paper's geometry ratios at 1/8
    /// linear scale (clip 512, tile 256, overlap 2 x 64, 3 x 3 tiles,
    /// coarse scale 2 covering the whole clip).
    pub fn paper_default() -> Self {
        let optics = OpticsConfig::m1_default();
        let mut generator = GeneratorConfig::with_size(2 * optics.base_n);
        // Features are kept wide enough (in pixels) that one coarse-grid
        // pixel stays a small fraction of a feature, as at the paper's
        // 1 nm pitch, and narrow enough relative to the optical resolution
        // to sit in the sub-Rayleigh regime; see DESIGN.md.
        generator.wire_width = 16;
        generator.wire_space = 24;
        generator.border = 20;
        ExperimentConfig {
            clip: 2 * optics.base_n,
            partition: PartitionConfig {
                tile: optics.base_n,
                overlap: optics.base_n / 2,
            },
            optics,
            resist: ResistModel::m1_default(),
            generator,
            schedule: Schedule::paper_default(),
            stitch: StitchConfig::paper_default(),
            blend_band: 0,
            s_max: 2,
            workers: 1,
        }
    }

    /// The default setup drawn at an `f` times finer pixel pitch: the grid,
    /// the clip, the partition and every pixel length of the generator
    /// scale by `f`, so the same layout in nm covers `f²` times the pixels.
    /// `pupil_radius_bins` and `source_step_bins` stay fixed, because the
    /// grid's extent in nm does: the pupil keeps its radius in frequency
    /// bins, so `k1` and the kernel support `P` are the same at every `f`.
    /// The stitch-loss window stays at Definition 1's 40 pixels rather than
    /// scaling with the pitch. `at_pitch(1)` is
    /// [`paper_default`](Self::paper_default).
    ///
    /// # Panics
    ///
    /// Panics if `f` is zero.
    pub fn at_pitch(f: usize) -> Self {
        assert!(f >= 1, "the pitch factor must be at least 1");
        let mut cfg = ExperimentConfig::paper_default();
        cfg.optics.base_n *= f;
        cfg.clip *= f;
        cfg.partition.tile *= f;
        cfg.partition.overlap *= f;
        let generator = &mut cfg.generator;
        generator.size *= f;
        generator.wire_width *= f;
        generator.wire_space *= f;
        generator.border *= f;
        cfg
    }

    /// The paper's literal scale, [`at_pitch(8)`](Self::at_pitch):
    /// 4096-pixel clips, 2048-pixel tiles, overlap 2 x 512, with features
    /// eight times wider in pixels, so they keep the default's `k1`.
    /// Accepted by every flow unchanged, but expect hours per clip on a
    /// CPU — the default scale exists precisely so the experiments run on a
    /// laptop.
    pub fn paper_scale() -> Self {
        ExperimentConfig::at_pitch(8)
    }

    /// A miniature setup for unit tests: 128-pixel clips over the
    /// `test_small` optics (64-pixel tiles, 3 x 3 partition).
    pub fn test_tiny() -> Self {
        let optics = OpticsConfig::test_small();
        let mut generator = GeneratorConfig::with_size(2 * optics.base_n);
        // Keep features resolvable by the small test pupil.
        generator.wire_width = 9;
        generator.wire_space = 13;
        generator.border = 8;
        ExperimentConfig {
            clip: 2 * optics.base_n,
            partition: PartitionConfig {
                tile: optics.base_n,
                overlap: optics.base_n / 2,
            },
            optics,
            resist: ResistModel::m1_default(),
            generator,
            schedule: Schedule::test_tiny(),
            stitch: StitchConfig {
                window: 24,
                ..StitchConfig::paper_default()
            },
            blend_band: 0,
            s_max: 2,
            workers: 1,
        }
    }

    /// The configuration a scale name denotes — `"default"` is
    /// [`paper_default`](Self::paper_default), `"tiny"` is
    /// [`test_tiny`](Self::test_tiny) — or `None` for any other name. The
    /// one mapping `ILT_SCALE` and the job service's `"scale"` share.
    pub fn for_scale(name: &str) -> Option<Self> {
        match name {
            "default" => Some(Self::paper_default()),
            "tiny" => Some(Self::test_tiny()),
            _ => None,
        }
    }

    /// Validates cross-field consistency.
    ///
    /// # Panics
    ///
    /// Panics if the tile size differs from the optics base grid, the clip
    /// is not `s_max` times coverable, or any sub-configuration is invalid.
    pub fn validate(&self) {
        self.optics.validate();
        self.resist.validate();
        self.generator.validate();
        self.schedule.validate();
        self.stitch.validate();
        assert_eq!(
            self.partition.tile, self.optics.base_n,
            "tile size must equal the litho base grid"
        );
        assert_eq!(
            self.generator.size, self.clip,
            "generator clip size must match the experiment clip"
        );
        assert!(self.s_max >= 1, "s_max must be at least 1");
        assert!(
            self.s_max.is_power_of_two(),
            "s_max must be a power of two (Algorithm 1 halves it)"
        );
        assert!(
            self.clip >= self.s_max * self.optics.base_n,
            "coarsest tiles (s_max * N = {}) must fit in the clip ({}); \
             non-divisible clips clamp the last row/column",
            self.s_max * self.optics.base_n,
            self.clip
        );
        assert!(self.workers >= 1, "need at least one worker");
    }

    /// The scale factor of the full-clip inspection system (Eq. (3)):
    /// `clip / base_n`.
    pub fn inspection_scale(&self) -> usize {
        self.clip / self.optics.base_n
    }

    /// Litho-config fingerprint for the mask store (`ilt-store`): a stable
    /// digest of every field that shapes a solved tile mask. Two configs
    /// with the same fingerprint produce interchangeable tile masks, so a
    /// store entry keyed under one may warm-start the other. `workers` is
    /// excluded — the executor width changes scheduling, never values.
    /// Over-keying (hashing fields like the generator that don't influence
    /// a solve given its target) only costs reuse, never correctness, so
    /// the digest conservatively covers the whole config via its `Debug`
    /// rendering. That also means adding, dropping or renaming a field
    /// re-keys every stored tile, so such a change bumps the version tag:
    /// entries written under an older tag become misses, never wrong masks.
    pub fn fingerprint(&self) -> u64 {
        let mut canonical = self.clone();
        canonical.workers = 1;
        let mut fp = ilt_store::Fingerprint::new();
        fp.write_str("ilt-experiment-config-v2");
        fp.write_str(&format!("{canonical:?}"));
        fp.finish()
    }
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        ExperimentConfig::paper_default().validate();
        ExperimentConfig::test_tiny().validate();
    }

    #[test]
    fn scale_mapping_is_total_over_valid_names() {
        assert!(ExperimentConfig::for_scale("tiny").is_some());
        assert!(ExperimentConfig::for_scale("default").is_some());
        assert!(ExperimentConfig::for_scale("huge").is_none());
    }

    #[test]
    fn paper_schedule_counts() {
        let s = Schedule::paper_default();
        assert_eq!(s.baseline_iterations, 100);
        assert_eq!(s.coarse_iterations, 60);
        assert_eq!(s.fine_iterations, 40);
        assert_eq!(s.fine_stages, 2);
        assert_eq!(s.refine_iterations, 4);
    }

    #[test]
    fn fine_stage_split() {
        let s = Schedule::paper_default();
        assert_eq!(s.fine_per_stage(0), 20);
        assert_eq!(s.fine_per_stage(1), 20);
        let odd = Schedule {
            fine_iterations: 7,
            fine_stages: 3,
            ..Schedule::paper_default()
        };
        assert_eq!(
            odd.fine_per_stage(0) + odd.fine_per_stage(1) + odd.fine_per_stage(2),
            7
        );
        assert_eq!(odd.fine_per_stage(2), 3);
    }

    #[test]
    fn warm_schedule_halves_the_fine_budget() {
        let paper = Schedule::paper_default();
        assert_eq!(paper.warm_fine_iterations(), 20);
        assert_eq!(paper.warm_per_stage(0) + paper.warm_per_stage(1), 20);
        let tiny = Schedule::test_tiny();
        assert_eq!(tiny.warm_fine_iterations(), 2);
        assert_eq!(tiny.warm_per_stage(0), 1);
        assert_eq!(tiny.warm_per_stage(1), 1);
        // The floor: never fewer than one iteration per stage.
        let minimal = Schedule {
            fine_iterations: 3,
            fine_stages: 3,
            ..Schedule::paper_default()
        };
        assert_eq!(minimal.warm_fine_iterations(), 3);
    }

    #[test]
    fn fingerprint_tracks_solve_shaping_fields_only() {
        let base = ExperimentConfig::test_tiny();
        assert_eq!(
            base.fingerprint(),
            ExperimentConfig::test_tiny().fingerprint()
        );
        assert_ne!(
            base.fingerprint(),
            ExperimentConfig::paper_default().fingerprint()
        );
        let mut retuned = ExperimentConfig::test_tiny();
        retuned.schedule.fine_iterations += 2;
        assert_ne!(base.fingerprint(), retuned.fingerprint());
        let mut wider = ExperimentConfig::test_tiny();
        wider.workers = 8;
        assert_eq!(base.fingerprint(), wider.fingerprint());
    }

    #[test]
    fn fingerprints_are_pinned() {
        // Every `ILT_STORE_DIR` entry is keyed by these digests: a change
        // that moves them must be deliberate.
        for (config, pinned) in [
            (ExperimentConfig::test_tiny(), 16_678_105_887_975_644_636),
            (
                ExperimentConfig::paper_default(),
                14_568_345_696_493_157_370,
            ),
        ] {
            assert_eq!(
                config.fingerprint(),
                pinned,
                "the `Debug` rendering changed — every `ILT_STORE_DIR` entry is re-keyed; \
                 bump `ilt-experiment-config-v2` deliberately and update the literals"
            );
        }
    }

    #[test]
    fn clamped_clips_validate() {
        // 160 = 2.5 tiles: valid now that the partition clamps; the coarse
        // hierarchy requirement is only that one coarsest tile fits.
        let mut cfg = ExperimentConfig::test_tiny();
        cfg.clip = 160;
        cfg.generator.size = 160;
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "must fit in the clip")]
    fn coarsest_level_must_fit() {
        let mut cfg = ExperimentConfig::test_tiny();
        cfg.clip = 96;
        cfg.generator.size = 96;
        cfg.s_max = 2; // coarsest tile 128 > clip 96
        cfg.validate();
    }

    #[test]
    fn paper_scale_matches_the_papers_numbers() {
        let cfg = ExperimentConfig::paper_scale();
        cfg.validate();
        assert_eq!(cfg.clip, 4096);
        assert_eq!(cfg.partition.tile, 2048);
        assert_eq!(cfg.partition.overlap, 2 * 512);
        assert_eq!(cfg.optics.base_n, 2048);
        // Same k1: features are as many times wider as the grid is finer,
        // over a pupil of the same radius in frequency bins.
        let default = ExperimentConfig::paper_default();
        let k1 = |c: &ExperimentConfig| {
            c.generator.wire_width as f64 * c.optics.pupil_radius_bins / c.optics.base_n as f64
        };
        assert_eq!(k1(&cfg), k1(&default));
        assert_eq!(
            cfg.optics.pupil_radius_bins,
            default.optics.pupil_radius_bins
        );
        assert_eq!(cfg.optics.kernel_support(), default.optics.kernel_support());
    }

    #[test]
    fn paper_geometry_ratios() {
        let cfg = ExperimentConfig::paper_default();
        // Same ratios as the paper: clip = 2 tiles, overlap = tile / 2.
        assert_eq!(cfg.clip, 2 * cfg.partition.tile);
        assert_eq!(cfg.partition.overlap, cfg.partition.tile / 2);
        assert_eq!(cfg.inspection_scale(), 2);
    }

    #[test]
    #[should_panic(expected = "tile size must equal")]
    fn tile_base_mismatch_rejected() {
        let mut cfg = ExperimentConfig::paper_default();
        cfg.partition.tile = 64;
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "fewer fine iterations")]
    fn bad_schedule_rejected() {
        let s = Schedule {
            fine_iterations: 1,
            fine_stages: 2,
            ..Schedule::paper_default()
        };
        s.validate();
    }
}
