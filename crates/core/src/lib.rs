//! The PA-TA problem and its assignment algorithms — the primary
//! contribution of *Dynamic Private Task Assignment under Differential
//! Privacy* (ICDE 2023).
//!
//! The crate is organised around the paper's structure:
//!
//! * [`model`] — tasks, workers, value functions `f_d`/`f_p`, and the
//!   [`model::Instance`] tying them to distances, service
//!   areas (`R_j`) and privacy budget vectors (Definitions 1–5);
//! * [`board`] — the untrusted server's public state: every published
//!   `(d̂, ε)` release, the effective pairs, the allocation list, and
//!   per-worker privacy ledgers;
//! * [`engine::ce`] — the conflict-elimination family (Algorithms 1–3):
//!   **PUCE** (utility objective), **PDCE** (distance objective), their
//!   non-private versions UCE / DCE, and the non-PPCF ablations;
//! * [`engine::game`] — the game-theoretic family (Algorithm 4):
//!   **PGT** and its non-private version GT, with the exact-potential
//!   machinery of Theorems VI.1–VI.3;
//! * [`engine::baseline`] — GRD (global greedy) and the Hungarian
//!   optimum;
//! * [`engine`] — the [`engine::AssignmentEngine`] trait every solver
//!   family implements, and the [`engine::build`] registry resolving a
//!   [`Method`] to a boxed engine;
//! * [`method`] — the Table IX method registry and a single entry point
//!   [`method::Method::run`];
//! * [`metrics`] — the evaluation measures of Section VII-C.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod analysis;
pub mod attack;
pub mod board;
pub mod config;
pub mod engine;
pub mod method;
pub mod metrics;
pub mod model;
pub mod outcome;

pub use board::Board;
pub use config::{
    CeaFallback, CompareMode, EngineConfig, Objective, ProposalAccounting, RunParams,
};
pub use dpta_dp::intern;
pub use dpta_dp::{FastMap, FastSet};
pub use engine::{AssignmentEngine, BudgetRemaining, EngineTrace, Uncapped};
pub use method::Method;
pub use metrics::Measures;
pub use model::{Instance, LinearValue, Task, Worker};
pub use outcome::{MoveRecord, RunOutcome};
