//! Workload generators for the DPTA experiments (Section VII-A/B).
//!
//! Three data sets drive the paper's evaluation:
//!
//! * **chengdu** — the Didi Chuxing Chengdu trace (2016-11-18). The real
//!   trace is distributed through the gated GAIA program, so this crate
//!   ships a seeded *ride-hailing simulator* ([`chengdu`]) that
//!   reproduces the properties the evaluation depends on: the UTM-style
//!   km frame of Fig. 3, timestamped orders batched into ≤1000-order
//!   windows, ten taxi groups used circularly, and — crucially — a task
//!   density inside worker service areas that is *sparser* than the
//!   `normal` synthetic set (the paper's explanation of PGT's relative
//!   utility, Section VII-D.2);
//! * **uniform** — 2-D uniform points in a 100×100 plane;
//! * **normal** — 2-D normal points with variance 150.
//!
//! [`scenario`] turns a Table X parameter assignment into ready-to-run
//! [`Instance`](dpta_core::Instance) batches, whose per-pair privacy
//! budget vectors (group size `Z = 7`, values drawn uniformly from the
//! configured range) come keyed from
//! [`SeededBudgets`](dpta_dp::SeededBudgets).

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod batching;
pub mod chengdu;
pub mod scenario;
pub mod synthetic;

pub use scenario::{Dataset, Scenario, ValueModel};
