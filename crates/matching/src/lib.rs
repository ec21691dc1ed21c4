//! Bipartite-matching substrate for the DPTA workspace.
//!
//! The paper's assignment pipeline needs three matching engines:
//!
//! * [`hungarian`] — the exact Kuhn–Munkres / Hungarian algorithm the
//!   paper cites as the classical optimum (Section V intro). Used as the
//!   optimal baseline and as an oracle in tests;
//! * [`greedy`] — global greedy max-weight matching, the GRD baseline of
//!   Table IX;
//! * [`cea`] — the Conflict Elimination Algorithm of Wang et al. \[3\]
//!   (Section IV), generalised over a probabilistic comparator so the
//!   private (PCF/PPCF) and non-private (real-distance) variants share
//!   one implementation;
//!
//! plus the supporting [`Assignment`] type and the
//! [`DistanceRankMatrix`](rank::DistanceRankMatrix) of Section IV.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

mod assignment;
pub mod cea;
pub mod greedy;
pub mod hungarian;
pub mod rank;

pub use assignment::Assignment;
