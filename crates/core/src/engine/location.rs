//! The Geo-Indistinguishability baseline (`GEO-I`): one-shot location
//! obfuscation instead of dynamic distance releases.
//!
//! The paper's related-work section (To et al. \[2\], Andrés et al.
//! \[18\]) protects workers by perturbing their *location* once with the
//! planar Laplace mechanism and letting the server assign on distances
//! computed from the noisy locations. This engine implements that
//! design inside the PA-TA frame so the two privacy models are directly
//! comparable:
//!
//! * worker `j` publishes `l̂_j = l_j + PlanarLaplace(ε_j)` where `ε_j`
//!   is the mean first-slot budget over his reachable pairs — the same
//!   order of leakage a single round of distance proposals would cost;
//! * the server computes `d̂_{i,j} = |l̂_j − l_i|` for the tasks in the
//!   worker's service area and runs the greedy matcher on the estimated
//!   utilities `v_i − f_d(d̂) − f_p(ε_j)`;
//! * the worker's ledger records one [`LOCATION_RELEASE`] of `ε_j`.
//!
//! A single location release reveals geometry that per-task distances
//! do not (see [`crate::attack`] for the converse attack), and its noise
//! cannot be refined by re-proposing — the trade-offs the paper's
//! dynamic scheme is designed around.
//!
//! [`LOCATION_RELEASE`]: crate::board::LOCATION_RELEASE

use crate::board::Board;
use crate::config::EngineConfig;
use crate::engine::{
    require_fresh_board, AssignmentEngine, BudgetRemaining, Ctx, EngineTrace, Uncapped,
};
use crate::model::Instance;
use crate::outcome::RunOutcome;
use dpta_dp::{NoiseSource, PlanarLaplace};
use dpta_matching::greedy::{greedy_max_weight, Edge};
use dpta_spatial::Point;

/// Slot key for the radial uniform of the location draw.
const SLOT_RADIUS: u32 = 0;
/// Slot key for the angular uniform of the location draw.
const SLOT_ANGLE: u32 = 1;

/// The one-shot Geo-Indistinguishability engine (see module docs).
#[derive(Debug, Clone, Copy)]
pub struct GeoIEngine {
    cfg: EngineConfig,
}

impl GeoIEngine {
    /// Builds the engine for a configuration.
    pub fn from_config(cfg: EngineConfig) -> Self {
        GeoIEngine { cfg }
    }
}

impl AssignmentEngine for GeoIEngine {
    fn name(&self) -> &'static str {
        "GEO-I"
    }

    fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    fn enforces_budget_cap(&self) -> bool {
        true
    }

    fn drive(&self, inst: &Instance, board: &mut Board, noise: &dyn NoiseSource) -> EngineTrace {
        self.drive_capped(inst, board, noise, &Uncapped)
    }

    fn drive_capped(
        &self,
        inst: &Instance,
        board: &mut Board,
        noise: &dyn NoiseSource,
        remaining: &dyn BudgetRemaining,
    ) -> EngineTrace {
        require_fresh_board(self.name(), board);
        let cfg = &self.cfg;
        let ctx = Ctx::new(inst, cfg, noise, board, remaining);
        let mut edges: Vec<Edge> = Vec::new();

        for j in 0..inst.n_workers() {
            let reach = inst.reach(j);
            if reach.is_empty() {
                continue;
            }
            // One location budget, comparable to a single proposal round.
            let eps: f64 = reach
                .iter()
                .map(|&i| inst.epsilon(i, j, 0).expect("reachable"))
                .sum::<f64>()
                / reach.len() as f64;
            if cfg.private && !ctx.affordable(board, j, eps) {
                // Hard lifetime cap: without the location release the
                // worker cannot participate in this round at all.
                continue;
            }

            let reported = if cfg.private {
                let mech = PlanarLaplace::new(eps);
                let (dx, dy) = mech.sample_from_uniforms(
                    noise.uniform(crate::board::LOCATION_RELEASE, j as u32, SLOT_RADIUS),
                    noise.uniform(crate::board::LOCATION_RELEASE, j as u32, SLOT_ANGLE),
                );
                board.charge_location(j, eps);
                let l = inst.workers()[j].location;
                Point::new(l.x + dx, l.y + dy)
            } else {
                inst.workers()[j].location
            };

            for &i in reach {
                let d_hat = inst.tasks()[i].location.distance(&reported);
                let estimated = inst.task_value(i) - ctx.fd(d_hat) - ctx.fp(eps);
                edges.push(Edge {
                    task: i,
                    worker: j,
                    weight: estimated,
                });
            }
        }

        let assignment = greedy_max_weight(inst.n_tasks(), inst.n_workers(), &edges, 0.0);
        for (t, w) in assignment.pairs() {
            board.set_winner(t, Some(w));
        }
        EngineTrace {
            rounds: 1,
            moves: Vec::new(),
        }
    }
}

/// Runs the Geo-I baseline (direct engine call — equivalent to
/// dispatching through [`Method::run`](crate::Method::run)).
pub fn run_geoi(inst: &Instance, cfg: &EngineConfig, noise: &dyn NoiseSource) -> RunOutcome {
    GeoIEngine::from_config(*cfg).run(inst, noise)
}
