//! Privacy budget vectors `ε_{i,j}` (Definition 5 / Table I of the
//! paper). The paper's 0/1 state vector `b_{i,j}` is a prefix of
//! consumed slots, tracked by the board as a per-pair slot count
//! (`Board::used_slots`).

use crate::validate_epsilon;
use serde::{Deserialize, Serialize};

/// The budget vector `ε_{i,j} = ⟨ε⁽¹⁾, …, ε⁽ᶻ⁾⟩` a worker owns toward one
/// task: the `u`-th proposal to that task spends `ε⁽ᵘ⁾`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BudgetVector {
    slots: Vec<f64>,
}

impl BudgetVector {
    /// Creates a budget vector; every slot must be a valid budget.
    pub fn new(slots: Vec<f64>) -> Self {
        for &e in &slots {
            validate_epsilon(e);
        }
        BudgetVector { slots }
    }

    /// Number of proposal slots `Z`.
    #[inline]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the vector has no slots at all.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The budget of the `u`-th proposal (0-based).
    #[inline]
    pub fn slot(&self, u: usize) -> f64 {
        self.slots[u]
    }

    /// All slots.
    #[inline]
    pub fn slots(&self) -> &[f64] {
        &self.slots
    }

    /// Sum of every slot — the worst-case leak toward this task.
    pub fn total(&self) -> f64 {
        self.slots.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_sums_all_slots() {
        assert!((BudgetVector::new(vec![0.5, 0.75, 1.0]).total() - 2.25).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "privacy budget must be finite")]
    fn invalid_slot_rejected() {
        let _ = BudgetVector::new(vec![0.5, f64::NAN]);
    }
}
