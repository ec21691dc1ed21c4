//! Per-worker privacy accounting (Theorems V.2 and VI.4).
//!
//! The paper proves PUCE and PGT each satisfy
//! `(Σ_{t_i ∈ R_j} b_{i,j}·ε_{i,j}·r_j)`-local differential privacy for
//! every worker `w_j`: each published obfuscated distance `d̂` with
//! budget `ε` contributes `ε · r_j`, because two neighbouring worker
//! locations inside the service area change any task distance by at most
//! `r_j`. The ledger simply tracks every publication and evaluates that
//! bound, so tests and examples can assert the theorem against the
//! actual protocol trace.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Ledger of one worker's published privacy budgets, keyed by task.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PrivacyLedger {
    per_task: BTreeMap<u32, Vec<f64>>,
}

impl PrivacyLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one publication toward `task` with budget `epsilon`.
    pub fn record(&mut self, task: u32, epsilon: f64) {
        crate::validate_epsilon(epsilon);
        self.per_task.entry(task).or_default().push(epsilon);
    }

    /// Number of publications recorded in total.
    pub fn publications(&self) -> usize {
        self.per_task.values().map(Vec::len).sum()
    }

    /// Total published budget toward one task: `b_{i,j} · ε_{i,j}`.
    pub fn spent_on(&self, task: u32) -> f64 {
        self.per_task.get(&task).map_or(0.0, |v| v.iter().sum())
    }

    /// Total published budget across all tasks: `Σ_i b_{i,j}·ε_{i,j}`.
    pub fn total_epsilon(&self) -> f64 {
        self.per_task.values().flatten().sum()
    }

    /// The local-DP level of Theorems V.2 / VI.4 for a worker with
    /// service radius `radius`: `Σ_{t_i∈R_j} b_{i,j}·ε_{i,j}·r_j`.
    pub fn ldp_bound(&self, radius: f64) -> f64 {
        assert!(
            radius.is_finite() && radius >= 0.0,
            "service radius must be finite and >= 0, got {radius}"
        );
        self.total_epsilon() * radius
    }

    /// Tasks with at least one publication, ascending.
    pub fn tasks(&self) -> impl Iterator<Item = u32> + '_ {
        self.per_task.keys().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::{tests::charge, Account};
    use crate::Ledger;
    use proptest::prelude::*;

    #[test]
    fn empty_ledger_has_zero_bound() {
        let l = PrivacyLedger::new();
        assert_eq!(l.total_epsilon(), 0.0);
        assert_eq!(l.ldp_bound(2.0), 0.0);
        assert_eq!(l.publications(), 0);
    }

    #[test]
    fn bound_is_radius_times_total() {
        let mut l = PrivacyLedger::new();
        l.record(0, 0.5);
        l.record(0, 0.75);
        l.record(3, 1.0);
        assert!((l.total_epsilon() - 2.25).abs() < 1e-15);
        assert!((l.ldp_bound(1.4) - 2.25 * 1.4).abs() < 1e-12);
        assert!((l.spent_on(0) - 1.25).abs() < 1e-15);
        assert_eq!(l.spent_on(7), 0.0);
        assert_eq!(l.publications(), 3);
        assert_eq!(l.tasks().collect::<Vec<_>>(), vec![0, 3]);
    }

    #[test]
    #[should_panic(expected = "privacy budget must be finite")]
    fn rejects_invalid_budget() {
        PrivacyLedger::new().record(0, -1.0);
    }

    #[test]
    #[should_panic(expected = "service radius")]
    fn rejects_negative_radius() {
        let mut l = PrivacyLedger::new();
        l.record(0, 1.0);
        let _ = l.ldp_bound(-0.1);
    }

    // Lifetime accounting across windows ([`Ledger::lifetime`]).

    #[test]
    fn tombstoned_slots_stay_three_words() {
        // Slots are never reused, so a slot's size is a per-entity cost
        // that grows with the stream's history.
        assert_eq!(std::mem::size_of::<Option<Account>>(), 24);
    }

    #[test]
    fn accountant_tracks_charges_and_retires() {
        let mut acc = Ledger::lifetime();
        acc.register(1, 2.0);
        acc.register(2, 1.0);
        acc.register(3, f64::INFINITY);
        charge(&mut acc, 1, 0.75);
        charge(&mut acc, 1, 0.75);
        charge(&mut acc, 2, 1.0);
        charge(&mut acc, 3, 1000.0);
        assert!((acc.spent(1) - 1.5).abs() < 1e-12);
        assert!((acc.remaining(1) - 0.5).abs() < 1e-12);
        assert!(!acc.is_exhausted(1));
        assert!(acc.is_exhausted(2));
        assert!(!acc.is_exhausted(3));
        assert_eq!(acc.drain_exhausted(), vec![2]);
        assert_eq!(acc.tracked(), [1, 3]);
        let total: f64 = acc.tracked().iter().map(|&id| acc.spent(id)).sum();
        assert!((total - 1001.5).abs() < 1e-9);
        assert!(acc.forget(3));
        assert!(!acc.forget(3));
        // Unknown ids: nothing left to spend.
        assert!(acc.is_exhausted(99));
        assert_eq!(acc.remaining(99), 0.0);
        assert_eq!(acc.spent(99), 0.0);
    }

    #[test]
    fn re_registering_keeps_spend() {
        let mut acc = Ledger::lifetime();
        acc.register(5, 1.0);
        charge(&mut acc, 5, 0.9);
        acc.register(5, 10.0); // capacity raise must not reset history
        assert!((acc.spent(5) - 0.9).abs() < 1e-12);
        assert!((acc.remaining(5) - 9.1).abs() < 1e-12);
    }

    #[test]
    fn handles_are_dense_aliases_of_ids() {
        let mut acc = Ledger::lifetime();
        acc.register(40, 2.0);
        acc.register(41, 3.0);
        let h40 = acc.resolve(40).unwrap();
        let h41 = acc.resolve(41).unwrap();
        assert_ne!(h40, h41);
        assert!(acc.resolve(99).is_none());
        acc.charge_at(h40, 0.5);
        acc.charge_at(h41, 1.0);
        assert!((acc.spent(40) - 0.5).abs() < 1e-12);
        assert!((acc.remaining_at(h40) - 1.5).abs() < 1e-12);
        assert!((acc.remaining_at(h41) - 2.0).abs() < 1e-12);
        // Removal tombstones the slot: a later registration can never
        // alias the old handle, and reads degrade to the unknown-id
        // behaviour.
        acc.forget(40);
        assert!(acc.resolve(40).is_none());
        assert_eq!(acc.remaining_at(h40), 0.0);
        acc.register(40, 5.0); // fresh slot
        let h40b = acc.resolve(40).unwrap();
        assert_ne!(h40, h40b);
        assert_eq!(acc.remaining_at(h40), 0.0, "old handle stays dead");
    }

    #[test]
    #[should_panic(expected = "stale account handle")]
    fn charging_a_stale_handle_panics() {
        let mut acc = Ledger::lifetime();
        acc.register(1, 1.0);
        let h = acc.resolve(1).unwrap();
        acc.forget(1);
        acc.charge_at(h, 0.1);
    }

    #[test]
    fn drained_entities_release_their_handles() {
        let mut acc = Ledger::lifetime();
        acc.register(8, 1.0);
        acc.register(9, 1.0);
        let h8 = acc.resolve(8).unwrap();
        acc.charge_at(h8, 1.0);
        assert_eq!(acc.drain_exhausted(), vec![8]);
        assert!(acc.resolve(8).is_none());
        assert_eq!(acc.remaining_at(h8), 0.0);
        assert_eq!(acc.tracked(), [9]);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        Ledger::lifetime().register(0, 0.0);
    }

    #[test]
    fn accountant_round_trips_canonically() {
        let mut acc = Ledger::lifetime();
        acc.register(7, f64::INFINITY);
        acc.register(2, 1.5);
        acc.register(9, 4.0);
        charge(&mut acc, 2, 0.5);
        charge(&mut acc, 9, 1.25);
        acc.forget(7); // leaves a slot tombstone
        let back = Ledger::deserialize_value(&acc.serialize_value()).expect("round trip");
        assert_eq!(back.tracked(), [2, 9]);
        assert_eq!(back.spent(2), acc.spent(2));
        assert_eq!(back.remaining(9), acc.remaining(9));
        // Canonical: a second round trip is value-identical.
        assert_eq!(back.serialize_value(), acc.serialize_value());
        // Infinite capacities survive exactly.
        let mut inf = Ledger::lifetime();
        inf.register(1, f64::INFINITY);
        let back = Ledger::deserialize_value(&inf.serialize_value()).unwrap();
        assert_eq!(back.remaining(1), f64::INFINITY);
    }

    #[test]
    fn accountant_rejects_malformed_rows() {
        let parse = |json: &str| Ledger::deserialize_value(&serde_json::from_str(json).unwrap());
        let row = r#"{"id":1,"capacity":1,"spent":0}"#;
        assert!(parse(&format!(r#"{{"Lifetime":{{"accountant":[{row}]}}}}"#)).is_ok());
        let dup = format!(r#"{{"Lifetime":{{"accountant":[{row},{row}]}}}}"#);
        assert!(parse(&dup).is_err());
        let bad_cap = r#"{"Lifetime":{"accountant":[{"id":1,"capacity":0,"spent":0}]}}"#;
        assert!(parse(bad_cap).is_err());
    }

    proptest! {
        #[test]
        fn accountant_total_matches_per_entity(
            charges in proptest::collection::vec((0u64..6, 0.0f64..2.0), 0..40)
        ) {
            let mut acc = Ledger::lifetime();
            for id in 0..6 {
                acc.register(id, f64::INFINITY);
            }
            for &(id, e) in &charges {
                charge(&mut acc, id, e);
            }
            let direct: f64 = charges.iter().map(|&(_, e)| e).sum();
            let by_id: f64 = acc.tracked().iter().map(|&id| acc.spent(id)).sum();
            prop_assert!((by_id - direct).abs() < 1e-9);
        }

        #[test]
        fn total_is_sum_of_per_task(
            records in proptest::collection::vec((0u32..8, 0.05f64..3.0), 0..40)
        ) {
            let mut l = PrivacyLedger::new();
            for &(t, e) in &records {
                l.record(t, e);
            }
            let direct: f64 = records.iter().map(|&(_, e)| e).sum();
            prop_assert!((l.total_epsilon() - direct).abs() < 1e-9);
            let by_task: f64 = (0..8).map(|t| l.spent_on(t)).sum();
            prop_assert!((by_task - direct).abs() < 1e-9);
        }
    }
}
