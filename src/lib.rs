//! **dpta** — Dynamic Private Task Assignment under Differential
//! Privacy.
//!
//! A from-scratch Rust reproduction of Du et al., *Dynamic Private Task
//! Assignment under Differential Privacy* (ICDE 2023): the PA-TA
//! problem, the PPCF comparison function, the PUCE and PGT assignment
//! algorithms, every baseline they are evaluated against, and the full
//! experiment harness regenerating the paper's figures.
//!
//! This crate is a facade re-exporting the workspace members:
//!
//! | crate | contents |
//! |---|---|
//! | [`spatial`] | points, service areas, grid index, distance matrices |
//! | [`dp`] | Laplace mechanism, PCF/PPCF, MLE effective pairs, ledgers |
//! | [`matching`] | Hungarian, greedy, rank matrices, CEA |
//! | [`core`] | the PA-TA model and the PUCE/PGT/PDCE/… engines |
//! | [`workloads`] | uniform/normal generators + Chengdu simulator |
//! | [`stream`] | arrival streams, windowing, online + sharded driving |
//! | [`experiments`] | figure registry, runner, reports, claims |
//!
//! # Quickstart
//!
//! ```
//! use dpta::prelude::*;
//!
//! // Three tasks, four workers, 2 km service radius.
//! let tasks: Vec<Task> = [(0.0, 0.0), (1.0, 1.0), (3.0, 0.5)]
//!     .iter()
//!     .map(|&(x, y)| Task::new(Point::new(x, y), 4.5))
//!     .collect();
//! let workers: Vec<Worker> = [(0.2, 0.1), (1.4, 0.8), (2.5, 0.2), (3.3, 1.0)]
//!     .iter()
//!     .map(|&(x, y)| Worker::new(Point::new(x, y), 2.0))
//!     .collect();
//!
//! // Each feasible pair owns a Z=3 privacy budget vector.
//! let inst = Instance::from_locations(tasks, workers, |_task, _worker| {
//!     BudgetVector::new(vec![0.5, 1.0, 1.5])
//! });
//!
//! // Run the paper's PUCE and inspect the outcome.
//! let outcome = Method::Puce.run(&inst, &RunParams::default());
//! assert!(outcome.assignment.len() > 0);
//! let m = measure(&inst, &outcome, 1.0, 1.0, true);
//! assert!(m.avg_utility().is_finite());
//!
//! // Every worker's local-DP level satisfies Theorem V.2.
//! outcome.board.verify_privacy_bounds(&inst);
//! ```
//!
//! # The engine API
//!
//! Every Table IX method is an [`AssignmentEngine`](core::engine::AssignmentEngine)
//! behind the [`Method`](core::Method) registry. Long-running callers
//! resolve the engine once and reuse it across batches — only the
//! noise source changes per run:
//!
//! ```
//! use dpta::prelude::*;
//!
//! let inst = Instance::from_locations(
//!     vec![Task::new(Point::new(0.0, 0.0), 4.5)],
//!     vec![Worker::new(Point::new(0.4, 0.3), 2.0)],
//!     |_, _| BudgetVector::new(vec![0.5, 1.0]),
//! );
//!
//! let params = RunParams::default();
//! let engine = Method::Puce.engine(&params); // Box<dyn AssignmentEngine>
//! assert_eq!(engine.name(), "PUCE");
//! assert!(engine.accounts_privacy() && engine.supports_warm_start());
//!
//! let noise = SeededNoise::new(params.seed);
//! let outcome = engine.run(&inst, &noise);
//!
//! // Trait dispatch and the Method::run convenience are bit-identical.
//! let direct = Method::Puce.run(&inst, &params);
//! assert_eq!(outcome.assignment, direct.assignment);
//! ```
//!
//! # The streaming pipeline
//!
//! The dynamic setting — arrivals over time, windowed batching, budget
//! depletion, sharded execution — lives in [`stream`]:
//!
//! ```
//! use dpta::prelude::*;
//!
//! let arrivals = StreamScenario::new(Scenario {
//!     batch_size: 30,
//!     n_batches: 2,
//!     ..Scenario::for_dataset(Dataset::Uniform)
//! })
//! .stream();
//! let cfg = StreamConfig::default();
//! let engine = Method::Puce.engine(&cfg.params);
//! let report = StreamDriver::new(engine.as_ref(), cfg).run(&arrivals);
//! report.assert_conservation(); // assigned + expired + pending = arrivals
//! ```
//!
//! See `examples/streaming.rs` for the full tour (windows, retirement,
//! sharding).

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub use dpta_core as core;
pub use dpta_dp as dp;
pub use dpta_experiments as experiments;
pub use dpta_matching as matching;
pub use dpta_spatial as spatial;
pub use dpta_stream as stream;
pub use dpta_workloads as workloads;

/// The names most programs need.
pub mod prelude {
    pub use dpta_core::metrics::{
        measure, relative_deviation_distance, relative_deviation_utility,
    };
    pub use dpta_core::{
        AssignmentEngine, Board, Instance, Measures, Method, RunOutcome, RunParams, Task, Worker,
    };
    pub use dpta_dp::{pcf, ppcf, BudgetVector, EffectivePair, Ledger, PrivacyLedger, SeededNoise};
    pub use dpta_matching::Assignment;
    pub use dpta_spatial::{Circle, GridPartition, Point};
    pub use dpta_stream::{
        run_sharded, run_sharded_halo, run_sharded_with, AdmissionConfig, ArrivalModel,
        ArrivalStream, ConfigError, LedgerMode, Outcome, PacingConfig, ServiceModel,
        SessionSnapshot, ShardStrategy, ShardedSession, ShardedSnapshot, SnapshotError,
        StreamConfig, StreamDriver, StreamReport, StreamScenario, StreamSession, WindowPolicy,
    };
    pub use dpta_workloads::{Dataset, Scenario};
}
