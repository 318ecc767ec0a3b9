//! Level-set ILT — the "GLS-ILT" baseline (\[3\] in the paper).
//!
//! The mask is the negative region of a level-set function `phi`. Each
//! iteration backpropagates the litho loss to a boundary velocity, advects
//! `phi` with a CFL-limited step, and periodically re-initialises `phi` to a
//! signed distance field. Because the mask can only change by moving its
//! contour, this solver produces far fewer sub-resolution assist features
//! than pixel ILT — which is exactly why the paper observes lower stitch
//! loss (but worse L2) for GLS-ILT under divide-and-conquer.

use ilt_grid::{Grid, RealGrid};

use crate::error::OptError;
use crate::loss::{evaluate_loss_into, LossEval};
use crate::sdf::{signed_distance, smooth_mask, smooth_mask_derivative_into, smooth_mask_into};
use crate::solver::{IltOutcome, SolveContext, SolveRequest, TileSolver};

/// Configuration of the level-set solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LevelSetIltConfig {
    /// Velocity scale applied to the backpropagated gradient.
    pub lr: f64,
    /// Half-width (pixels) of the smooth Heaviside band.
    pub band_eps: f64,
    /// Re-initialise `phi` to a signed distance field every this many
    /// iterations.
    pub reinit_every: usize,
    /// Maximum level-set change per iteration in pixels (CFL limit).
    pub cfl: f64,
}

impl LevelSetIltConfig {
    /// Configuration matching the GLS-ILT baseline.
    pub fn gls_default() -> Self {
        LevelSetIltConfig {
            lr: 40.0,
            band_eps: 1.6,
            reinit_every: 8,
            cfl: 0.9,
        }
    }

    fn validate(&self) -> Result<(), OptError> {
        if !(self.lr > 0.0 && self.lr.is_finite()) {
            return Err(OptError::BadConfig {
                reason: format!("velocity scale {} must be positive", self.lr),
            });
        }
        if self.band_eps <= 0.0 || self.band_eps.is_nan() {
            return Err(OptError::BadConfig {
                reason: "band width must be positive".to_string(),
            });
        }
        if self.reinit_every == 0 {
            return Err(OptError::BadConfig {
                reason: "reinit period must be nonzero".to_string(),
            });
        }
        if !(self.cfl > 0.0 && self.cfl <= 2.0) {
            return Err(OptError::BadConfig {
                reason: format!("CFL limit {} outside (0, 2]", self.cfl),
            });
        }
        Ok(())
    }
}

impl Default for LevelSetIltConfig {
    fn default() -> Self {
        LevelSetIltConfig::gls_default()
    }
}

/// The level-set solver.
#[derive(Debug, Clone, Default)]
pub struct LevelSetIlt {
    config: LevelSetIltConfig,
}

impl LevelSetIlt {
    /// Creates a solver with the GLS defaults.
    pub fn new() -> Self {
        LevelSetIlt {
            config: LevelSetIltConfig::gls_default(),
        }
    }

    /// Creates a solver with an explicit configuration.
    pub fn with_config(config: LevelSetIltConfig) -> Self {
        LevelSetIlt { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &LevelSetIltConfig {
        &self.config
    }
}

impl TileSolver for LevelSetIlt {
    fn name(&self) -> &str {
        "gls-ilt"
    }

    fn solve(
        &self,
        ctx: &SolveContext<'_>,
        request: &SolveRequest<'_>,
    ) -> Result<IltOutcome, OptError> {
        crate::solver::with_solve_span(self.name(), ctx, || self.solve_inner(ctx, request))
    }
}

impl LevelSetIlt {
    fn solve_inner(
        &self,
        ctx: &SolveContext<'_>,
        request: &SolveRequest<'_>,
    ) -> Result<IltOutcome, OptError> {
        self.config.validate()?;
        request.validate(ctx)?;
        let cfg = &self.config;
        let system = ctx.system()?;
        let mut phi = signed_distance(&request.initial.threshold(0.5));
        let mut history = Vec::with_capacity(request.iterations);
        let lr = cfg.lr * request.lr_scale;

        // Reused scratch, hoisted out of the loop: the forward/adjoint
        // arena plus the mask/derivative/loss/step buffers. With
        // everything preallocated, iterations between re-initialisations
        // perform zero heap allocations (pinned by the counting-allocator
        // test in `tests/zero_alloc.rs`).
        // The system simulates in f32: the target is rounded once, the
        // mask on its way into every simulation.
        let mut ws = system.workspace();
        let (w, h) = (phi.width(), phi.height());
        let target = request.target.map(|&t| t as f32);
        let mut mask = RealGrid::new(w, h, 0.0);
        let mut dmask_dphi = RealGrid::new(w, h, 0.0);
        let mut eval = LossEval {
            value: 0.0,
            dldi: Grid::new(w, h, 0.0f32),
        };
        let mut step = vec![0.0f64; w * h];
        for iter in 0..request.iterations {
            if ilt_telemetry::deadline::exceeded() {
                return Err(OptError::DeadlineExceeded {
                    completed_iterations: history.len(),
                });
            }
            smooth_mask_into(&phi, cfg.band_eps, &mut mask);
            system.simulate_into(&mask, &mut ws)?;
            evaluate_loss_into(system.resist(), ws.intensity(), &target, &mut eval);
            history.push(eval.value);
            let grad_mask = system.simulator().gradient_into(&mut ws, &eval.dldi)?;
            smooth_mask_derivative_into(&phi, cfg.band_eps, &mut dmask_dphi);

            // Gradient descent direction on phi, then a CFL clamp so the
            // contour never jumps more than `cfl` pixels per step.
            for ((s, g), d) in step
                .iter_mut()
                .zip(grad_mask.as_slice())
                .zip(dmask_dphi.as_slice())
            {
                *s = -lr * f64::from(*g) * d;
            }
            let peak = step.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            if peak > cfg.cfl {
                let scale = cfg.cfl / peak;
                for v in &mut step {
                    *v *= scale;
                }
            }
            for (p, v) in phi.as_mut_slice().iter_mut().zip(&step) {
                *p += v;
            }

            if (iter + 1) % cfg.reinit_every == 0 {
                phi = signed_distance(&binary_from_phi(&phi));
            }
        }

        Ok(IltOutcome::new(
            smooth_mask(&phi, cfg.band_eps),
            crate::solver::ConvergenceTrace::single("fine", history),
        ))
    }
}

fn binary_from_phi(phi: &RealGrid) -> ilt_grid::BitGrid {
    phi.map(|&p| u8::from(p < 0.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ilt_grid::{Grid, Rect};
    use ilt_litho::{Corner, LithoBank, OpticsConfig, ResistModel};

    fn bank() -> LithoBank {
        LithoBank::new(OpticsConfig::test_small(), ResistModel::default()).unwrap()
    }

    fn target_grid(n: usize) -> RealGrid {
        let mut t = Grid::new(n, n, 0.0);
        t.fill_rect(Rect::new(16, 20, 34, 30), 1.0);
        t.fill_rect(Rect::new(40, 34, 52, 46), 1.0);
        t
    }

    #[test]
    fn config_validation() {
        assert!(LevelSetIltConfig::gls_default().validate().is_ok());
        for bad in [
            LevelSetIltConfig {
                lr: -1.0,
                ..Default::default()
            },
            LevelSetIltConfig {
                band_eps: 0.0,
                ..Default::default()
            },
            LevelSetIltConfig {
                reinit_every: 0,
                ..Default::default()
            },
            LevelSetIltConfig {
                cfl: 5.0,
                ..Default::default()
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?}");
        }
    }

    #[test]
    fn name() {
        assert_eq!(LevelSetIlt::new().name(), "gls-ilt");
    }

    #[test]
    fn loss_decreases_and_print_improves() {
        let bank = bank();
        let ctx = SolveContext {
            bank: &bank,
            n: 64,
            scale: 1,
        };
        let target = target_grid(64);
        let outcome = LevelSetIlt::new()
            .solve(&ctx, &SolveRequest::new(&target, &target, 30))
            .unwrap();
        let first = outcome.loss_history[0];
        let last = outcome.final_loss().unwrap();
        assert!(last < 0.8 * first, "loss {first} -> {last}");

        let system = bank.system(64, 1).unwrap();
        let target_bits = target.threshold(0.5);
        let naive = system
            .print(&target, Corner::Nominal)
            .unwrap()
            .xor_count(&target_bits);
        let optimised = system
            .print(&outcome.mask, Corner::Nominal)
            .unwrap()
            .xor_count(&target_bits);
        assert!(optimised < naive, "optimised {optimised} vs naive {naive}");
    }

    #[test]
    fn mask_is_nearly_binary() {
        // Level-set masks are binary away from the epsilon band — unlike
        // pixel ILT there is no extended gray region.
        let bank = bank();
        let ctx = SolveContext {
            bank: &bank,
            n: 64,
            scale: 1,
        };
        let target = target_grid(64);
        let outcome = LevelSetIlt::new()
            .solve(&ctx, &SolveRequest::new(&target, &target, 12))
            .unwrap();
        let gray = outcome
            .mask
            .as_slice()
            .iter()
            .filter(|&&m| m > 0.05 && m < 0.95)
            .count();
        // The gray band hugs the contour: a thin fraction of the grid.
        assert!(
            (gray as f64) < 0.2 * outcome.mask.len() as f64,
            "{gray} gray pixels"
        );
    }

    #[test]
    fn produces_fewer_components_than_pixel_ilt() {
        // The defining qualitative difference the paper relies on: level-set
        // masks stay topologically close to the target (few SRAFs).
        use crate::pixel::PixelIlt;
        use ilt_grid::connected_components;

        let bank = bank();
        let ctx = SolveContext {
            bank: &bank,
            n: 64,
            scale: 1,
        };
        let target = target_grid(64);
        let request = SolveRequest::new(&target, &target, 25);
        let ls = LevelSetIlt::new().solve(&ctx, &request).unwrap();
        let px = PixelIlt::new().solve(&ctx, &request).unwrap();
        let (_, ls_comps) = connected_components(&ls.mask.threshold(0.5));
        let (_, px_comps) = connected_components(&px.mask.threshold(0.5));
        assert!(
            ls_comps.len() <= px_comps.len(),
            "level-set {} vs pixel {} components",
            ls_comps.len(),
            px_comps.len()
        );
    }

    #[test]
    fn cfl_limits_step_size() {
        // With an absurd lr the CFL clamp must keep phi finite and the mask
        // valid.
        let bank = bank();
        let ctx = SolveContext {
            bank: &bank,
            n: 64,
            scale: 1,
        };
        let target = target_grid(64);
        let solver = LevelSetIlt::with_config(LevelSetIltConfig {
            lr: 1e9,
            ..Default::default()
        });
        let outcome = solver
            .solve(&ctx, &SolveRequest::new(&target, &target, 5))
            .unwrap();
        assert!(outcome.mask.as_slice().iter().all(|m| m.is_finite()));
        assert!(outcome.mask.min() >= 0.0 && outcome.mask.max() <= 1.0);
    }

    #[test]
    fn expired_deadline_stops_the_iteration_loop() {
        let bank = bank();
        let ctx = SolveContext {
            bank: &bank,
            n: 64,
            scale: 1,
        };
        let target = target_grid(64);
        let solver = LevelSetIlt::new();
        let _scope = ilt_telemetry::deadline::scope(Some(std::time::Instant::now()));
        match solver.solve(&ctx, &SolveRequest::new(&target, &target, 20)) {
            Err(OptError::DeadlineExceeded {
                completed_iterations,
            }) => assert_eq!(completed_iterations, 0),
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }
}
