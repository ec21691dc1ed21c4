//! Shared engine context: value functions, noise gating, prospective
//! release evaluation.

use crate::board::Board;
use crate::config::EngineConfig;
use crate::engine::BudgetRemaining;
use crate::model::{DistanceValue, Instance, LinearValue, PrivacyValue};
use dpta_dp::{EffectivePair, NoiseSource, Release, ReleaseSet};

/// A release a worker has computed locally but not (yet) published.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Prospective {
    /// Budget `ε⁽ᵘ⁾` of the slot this release would consume.
    pub epsilon: f64,
    /// The obfuscated distance that would be published.
    pub d_hat: f64,
    /// The effective pair the pair's release set would have afterwards.
    pub effective: EffectivePair,
}

/// Bundles the instance, configuration and noise source, and exposes
/// the handful of derived operations every engine needs.
pub(crate) struct Ctx<'a> {
    pub inst: &'a Instance,
    pub cfg: &'a EngineConfig,
    noise: &'a dyn NoiseSource,
    fd: LinearValue,
    fp: LinearValue,
    /// Remaining lifetime budget per worker at drive start (the hard
    /// lifetime cap hook; `Uncapped` when the caller sets no cap).
    remaining: &'a dyn BudgetRemaining,
    /// Each worker's board spend when the drive started: the capped
    /// gate compares *novel* spend, not carried history, against the
    /// remaining budget.
    base_spend: Vec<f64>,
}

impl<'a> Ctx<'a> {
    pub fn new(
        inst: &'a Instance,
        cfg: &'a EngineConfig,
        noise: &'a dyn NoiseSource,
        board: &Board,
        remaining: &'a dyn BudgetRemaining,
    ) -> Self {
        assert!(
            cfg.alpha.is_finite() && cfg.alpha > 0.0,
            "f_d slope must be finite and > 0 (Eq. 4 needs its inverse), got {}",
            cfg.alpha
        );
        assert!(
            cfg.beta.is_finite() && cfg.beta >= 0.0,
            "f_p slope must be finite and >= 0, got {}",
            cfg.beta
        );
        Ctx {
            inst,
            cfg,
            noise,
            fd: LinearValue::new(cfg.alpha),
            fp: LinearValue::new(cfg.beta),
            remaining,
            base_spend: (0..inst.n_workers())
                .map(|j| board.spent_total(j))
                .collect(),
        }
    }

    /// Whether `worker` can afford another `epsilon` of novel spend:
    /// his board-spend delta since drive start plus `epsilon` must fit
    /// the remaining lifetime budget the cap hook grants. Always true
    /// under [`Uncapped`](crate::engine::Uncapped).
    pub fn affordable(&self, board: &Board, worker: usize, epsilon: f64) -> bool {
        board.spent_total(worker) - self.base_spend[worker] + epsilon
            <= self.remaining.remaining(worker) + 1e-12
    }

    /// `f_d(d)`.
    #[inline]
    pub fn fd(&self, d: f64) -> f64 {
        DistanceValue::value(&self.fd, d)
    }

    /// `f_d⁻¹(v)`.
    #[inline]
    pub fn fd_inv(&self, v: f64) -> f64 {
        self.fd.inverse(v)
    }

    /// `f_p(ε)` — zero for non-private runs, whose utility ignores
    /// privacy cost.
    #[inline]
    pub fn fp(&self, eps: f64) -> f64 {
        if self.cfg.private {
            PrivacyValue::value(&self.fp, eps)
        } else {
            0.0
        }
    }

    /// The noise of the `slot`-th release for (task, worker): a fixed
    /// Laplace draw for private runs, zero for non-private ones.
    #[inline]
    pub fn noise_for(&self, task: usize, worker: usize, slot: usize, epsilon: f64) -> f64 {
        if self.cfg.private {
            self.noise
                .noise(task as u32, worker as u32, slot as u32, epsilon)
        } else {
            0.0
        }
    }

    /// Locally evaluates the next release of (task, worker) without
    /// publishing: returns `None` when the pair's budget vector is
    /// exhausted. Deterministic — calling again returns the same values,
    /// so an unpublished evaluation leaks nothing and a later publish
    /// reveals exactly this draw.
    pub fn prospective(&self, board: &Board, task: usize, worker: usize) -> Option<Prospective> {
        debug_assert!(
            self.inst.in_reach(task, worker),
            "prospective() requires task in worker's service area"
        );
        let slot = board.used_slots(task, worker);
        let epsilon = self.inst.epsilon(task, worker, slot)?;
        let d_hat = self.inst.distance(task, worker) + self.noise_for(task, worker, slot, epsilon);
        let effective = match board.releases(task, worker) {
            Some(existing) => {
                let mut set: ReleaseSet = existing.clone();
                set.push(Release {
                    value: d_hat,
                    epsilon,
                });
                set.effective().expect("non-empty release set")
            }
            None => EffectivePair {
                distance: d_hat,
                epsilon,
            },
        };
        Some(Prospective {
            epsilon,
            d_hat,
            effective,
        })
    }
}
