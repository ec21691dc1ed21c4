//! **dpta-stream** — the *dynamic* in Dynamic Private Task Assignment.
//!
//! The batch experiments replay pre-built instances; this crate builds
//! the online setting the paper's title promises and the related
//! batch-assignment literature (Li et al., arXiv:2108.09019; Qiu & Yi,
//! arXiv:2209.01387) frames as the one that matters: tasks and workers
//! *arrive over time*, are grouped into windows, matched in batches
//! under a depleting privacy budget, and retired when that budget runs
//! out. The pipeline has four stages, each usable on its own:
//!
//! * [`ArrivalStream`] / [`StreamScenario`] / [`ArrivalModel`] — a
//!   time-ordered log of [`TaskArrival`]/[`WorkerArrival`] events,
//!   generated from the Table X workload scenarios plus Poisson and
//!   bursty (rush-hour) arrival processes;
//! * [`WindowPolicy`] — batch formation by time window, task-count
//!   threshold (the paper's "at most 1000 orders by timestamp"), or an
//!   adaptive latency-targeting controller
//!   ([`WindowPolicy::Adaptive`]) fed realized backlog/latency by the
//!   driver after every window;
//! * [`StreamSession`] — the primary, push-based interface:
//!   `push(event)` / `advance_to(t)` / `poll_outcomes()` / `close()`,
//!   emitting assignments, expiries, retirements and worker returns as
//!   a typed [`Outcome`] log. Warm-start engines resume from carried
//!   protocol state per the engine trait's warm-start contract, a
//!   [`Ledger`](dpta_dp::Ledger) tracks budget depletion —
//!   lifetime by default, or a sliding protection window
//!   ([`LedgerMode::Windowed`]) with optional pacing
//!   ([`PacingConfig`]) and admission control ([`AdmissionConfig`]) —
//!   exhausted workers retire (or idle until reclamation), unserved
//!   tasks carry over until a time-to-live expires, and a
//!   [`ServiceModel`] returns matched workers to the pool after their
//!   service duration (serve-and-leave is `ServiceModel::Never`). It is
//!   a thin wrapper over the one session type, [`ShardedSession`], on a
//!   single cell: every session cuts its windows with one window former
//!   and steps them through one window stepper;
//! * [`StreamDriver`] — the batch-shaped drain loop over the session:
//!   replays a pre-built stream to completion;
//! * [`run_sharded`] / [`run_sharded_halo`] — partition the stream by
//!   spatial grid cell
//!   ([`GridPartition`](dpta_spatial::GridPartition)) and drive each
//!   cell's share of every window through one stepper, on the calling
//!   thread. Drop-pairs mode, which lists each worker in its home cell
//!   only, is exact on shard-disjoint input; the boundary-halo protocol
//!   ([`ShardStrategy::Halo`]) additionally recovers cross-boundary
//!   pairs via halo membership and a deterministic reconciliation
//!   pass, staying near-exact on general input. [`ShardedSession`] is
//!   their push-based form, with the same typed [`Outcome`] log, and
//!   its [`ShardedSnapshot`] (alias [`SessionSnapshot`]) makes any
//!   session durable.
//!
//! Everything is deterministic in the seed: budget vectors and noise
//! draws are keyed by *logical* entity ids rather than per-window
//! indices, so the same stream replays bit-identically — sharded or
//! not.
//!
//! # Examples
//!
//! ```
//! use dpta_core::Method;
//! use dpta_stream::{StreamConfig, StreamDriver, StreamScenario, WindowPolicy};
//! use dpta_workloads::{Dataset, Scenario};
//!
//! // A small uniform workload, streamed: tasks arrive Poisson, 80 % of
//! // the fleet is on duty from t = 0.
//! let stream = StreamScenario::new(Scenario {
//!     batch_size: 40,
//!     n_batches: 2,
//!     ..Scenario::for_dataset(Dataset::Uniform)
//! })
//! .stream();
//!
//! // Six-minute windows, default Table X budgets, engine = PUCE.
//! let cfg = StreamConfig {
//!     policy: WindowPolicy::ByTime { width: 360.0 },
//!     ..StreamConfig::default()
//! };
//! let engine = Method::Puce.engine(&cfg.params);
//! let report = StreamDriver::new(engine.as_ref(), cfg).run(&stream);
//!
//! // Every arrival is assigned, expired, or still pending — exactly once.
//! let (matched, expired, pending) = report.assert_conservation();
//! assert_eq!(matched + expired + pending, 80);
//! println!("{}", report.render());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

mod arrival;
mod driver;
mod event;
mod halo;
mod lifecycle;
mod metrics;
mod session;
mod shard;
mod snapshot;
mod window;

pub use arrival::{ArrivalModel, StreamScenario};
pub use driver::{
    AdmissionConfig, ConfigError, LedgerMode, PacingConfig, StreamConfig, StreamDriver,
};
pub use event::{ArrivalEvent, ArrivalStream, TaskArrival, WorkerArrival};
pub use metrics::{
    percentile, ShardedReport, StreamReport, TaskFate, WindowCutDecision, WindowFeedback,
    WindowReport,
};
pub use session::{Outcome, ServiceModel, StreamSession};
pub use shard::{run_sharded, run_sharded_halo, run_sharded_with, ShardStrategy, ShardedSession};
pub use snapshot::{SessionSnapshot, ShardedSnapshot, SnapshotError, SNAPSHOT_VERSION};
pub use window::{AdaptivePolicy, WindowPolicy, MAX_WINDOWS};
