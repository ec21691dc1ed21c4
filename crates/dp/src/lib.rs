//! Differential-privacy substrate for the DPTA workspace.
//!
//! Implements every privacy primitive the paper relies on:
//!
//! * [`Laplace`] — the Laplace distribution (pdf/cdf/quantile/sampling),
//!   the noise model of Definition 6 and the Laplace mechanism of
//!   Definition 11;
//! * [`LaplaceDiff`] — the closed-form distribution of the difference of
//!   two independent zero-mean Laplace variables, which is exactly what
//!   the Probability Compare Function integrates (Lemma X.1);
//! * [`pcf`] — the PCF of Wang et al. \[3\] (Definition 6);
//! * [`ppcf`] — the paper's Partial Probability Compare Function
//!   (Section V-A, Theorem V.1);
//! * [`ReleaseSet`] / [`EffectivePair`] — maximum-likelihood estimation of
//!   the *effective obfuscated distance* and *effective privacy budget*
//!   from a worker's sequence of releases (Section V-A);
//! * [`BudgetVector`] — the per-(task, worker) privacy budget vectors
//!   `ε_{i,j}` of Definition 5, and [`SeededBudgets`], the keyed source
//!   that derives every slot from the pair's logical ids instead of
//!   storing it;
//! * [`PrivacyLedger`] — per-worker accounting of published budgets,
//!   reproducing the `Σ_{t_i∈R_j} b_{i,j}·ε_{i,j}·r_j` local-DP bound of
//!   Theorems V.2 / VI.4;
//! * [`Ledger`] — per-entity budget depletion across a stream of
//!   windows, keyed by stable entity ids (the retirement authority of
//!   the `dpta-stream` pipeline): lifetime accounting, or a sliding
//!   protection window `W` whose older spend is reclaimed, making
//!   workers renewable (the continual-observation model of Qiu & Yi,
//!   arXiv:2209.01387);
//! * [`NoiseSource`] — deterministic noise derivation so that a proposal
//!   evaluated locally and published later reveals exactly one draw.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

mod accountant;
mod budget;
mod budgets;
mod diff;
mod geo;
pub mod intern;
mod laplace;
mod ledger;
mod noise;
mod pcf;
mod ppcf;
mod release;

pub use accountant::PrivacyLedger;
pub use budget::BudgetVector;
pub use budgets::SeededBudgets;
pub use diff::LaplaceDiff;
pub use geo::{lambert_w_m1, PlanarLaplace};
pub use intern::{FastMap, FastSet};
pub use laplace::Laplace;
pub use ledger::{AccountId, Ledger};
pub use noise::{NoiseSource, ScriptedNoise, SeededNoise};
pub use pcf::pcf;
pub use ppcf::ppcf;
pub use release::{EffectivePair, Release, ReleaseSet};

/// Validates a privacy budget: must be finite and strictly positive.
///
/// Every public entry point that accepts an `ε` funnels through this so a
/// zero/negative/NaN budget fails loudly instead of silently producing a
/// degenerate distribution.
#[inline]
pub fn validate_epsilon(epsilon: f64) -> f64 {
    assert!(
        epsilon.is_finite() && epsilon > 0.0,
        "privacy budget must be finite and > 0, got {epsilon}"
    );
    epsilon
}
