//! The keyed source of privacy budget vectors (Table X: privacy budget
//! range `[0.5, 1.75]` by default, group size `Z = 7`).
//!
//! Each feasible (task, worker) pair owns a vector of `Z` budgets drawn
//! i.i.d. uniformly from the configured range. Every slot is a pure
//! function of `(seed, batch, task key, worker key, slot)`, so nothing
//! needs storing: an instance answers `ε⁽ᵘ⁾_{i,j}` by hashing the
//! pair's logical ids, whatever order or window it was built in.

use crate::noise::splitmix64;
use crate::BudgetVector;

/// Hash-derived budget vectors: the production budget source, keyed
/// like [`SeededNoise`](crate::SeededNoise).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeededBudgets {
    /// First hash state, derived from `(seed, batch)` once.
    root: u64,
    lo: f64,
    hi: f64,
    group_size: usize,
}

impl SeededBudgets {
    /// A source for one batch of one scenario, drawing from
    /// `[range.0, range.1)` (the constant `range.0` when both ends
    /// agree) with `group_size` slots per pair.
    ///
    /// # Examples
    ///
    /// ```
    /// use dpta_dp::SeededBudgets;
    ///
    /// let budgets = SeededBudgets::new(42, 0, (0.5, 1.75), 7);
    /// let e = budgets.epsilon(3, 9, 0);
    /// assert!((0.5..1.75).contains(&e));
    /// assert_eq!(e, budgets.vector(3, 9).slot(0));
    /// ```
    pub fn new(seed: u64, batch: u64, range: (f64, f64), group_size: usize) -> Self {
        assert!(
            range.0 > 0.0 && range.1 >= range.0,
            "budget range must satisfy 0 < lo <= hi, got {range:?}"
        );
        assert!(group_size > 0, "budget group size must be positive");
        SeededBudgets {
            root: splitmix64(seed ^ batch.rotate_left(17) ^ 0xB0D6_E7F1_0123_4567),
            lo: range.0,
            hi: range.1,
            group_size,
        }
    }

    /// Slots per pair (`Z`).
    #[inline]
    pub fn group_size(&self) -> usize {
        self.group_size
    }

    /// The budget `ε⁽ᵘ⁾` of slot `slot` (`< Z`) for the pair
    /// (`task`, `worker`), keyed by the entities' logical ids.
    #[inline]
    pub fn epsilon(&self, task: u64, worker: u64, slot: usize) -> f64 {
        debug_assert!(slot < self.group_size, "slot {slot} out of range");
        if self.hi == self.lo {
            return self.lo;
        }
        let mut h = splitmix64(self.root ^ task);
        h = splitmix64(h ^ (worker << 21));
        h = splitmix64(h ^ ((slot as u64) << 42));
        let u = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        self.lo + u * (self.hi - self.lo)
    }

    /// The whole budget vector `ε_{i,j}` of the pair (`task`, `worker`).
    pub fn vector(&self, task: u64, worker: u64) -> BudgetVector {
        BudgetVector::new(
            (0..self.group_size)
                .map(|u| self.epsilon(task, worker, u))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vectors_are_deterministic_and_in_range() {
        let g = SeededBudgets::new(42, 0, (0.5, 1.75), 7);
        let a = g.vector(3, 9);
        let b = g.vector(3, 9);
        assert_eq!(a, b);
        assert_eq!(a.len(), 7);
        for &e in a.slots() {
            assert!((0.5..1.75).contains(&e), "slot {e} out of range");
        }
    }

    #[test]
    fn different_keys_differ() {
        let g = SeededBudgets::new(42, 0, (0.5, 1.75), 7);
        assert_ne!(g.vector(3, 9), g.vector(3, 10));
        assert_ne!(g.vector(3, 9), g.vector(4, 9));
        let g2 = SeededBudgets::new(42, 1, (0.5, 1.75), 7);
        assert_ne!(g.vector(3, 9), g2.vector(3, 9));
        let g3 = SeededBudgets::new(43, 0, (0.5, 1.75), 7);
        assert_ne!(g.vector(3, 9), g3.vector(3, 9));
    }

    #[test]
    fn draws_cover_the_range_roughly_uniformly() {
        let g = SeededBudgets::new(1, 0, (0.5, 1.75), 1);
        let n = 20_000;
        let mean: f64 = (0..n).map(|k| g.epsilon(k, 0, 0)).sum::<f64>() / n as f64;
        assert!((mean - 1.125).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn degenerate_range_gives_constant_budgets() {
        let g = SeededBudgets::new(1, 0, (1.0, 1.0), 3);
        assert_eq!(g.vector(0, 0).slots(), &[1.0, 1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "budget range")]
    fn invalid_range_panics() {
        let _ = SeededBudgets::new(1, 0, (0.0, 1.0), 3);
    }

    /// Draws pinned to the bits the generator produced before it moved
    /// into this crate, so a port that changes the hash (and with it
    /// every budget of every run) cannot pass silently. Covers plain
    /// keys, the streaming pipeline's `run seed ^ 0x5712_EA11` base
    /// (run seeds 42, 7 and 0), a nonzero batch, and slots across the
    /// vector.
    #[test]
    fn draws_match_pinned_golden_bits() {
        let stream = |run_seed: u64| run_seed ^ 0x5712_EA11;
        let golden: [(u64, u64, u64, u64, usize, u64); 14] = [
            (42, 0, 3, 9, 0, 0x3FF5_5DEB_12B3_48E6),
            (42, 0, 3, 9, 3, 0x3FF3_A373_09D6_B5B8),
            (42, 0, 3, 9, 6, 0x3FEF_DE4A_9B94_A2C1),
            (42, 0, 0, 0, 0, 0x3FFB_2DD1_FD92_94DF),
            (42, 0, 0, 0, 3, 0x3FE2_EB8B_B0BD_8F94),
            (42, 0, 123_456, 7_890_123, 6, 0x3FEC_9D7A_69A6_36A2),
            (stream(42), 0, 17, 23, 0, 0x3FF8_C3D5_F6DB_D778),
            (stream(42), 0, 17, 23, 3, 0x3FEA_B6B2_CF0E_5C08),
            (stream(42), 0, 17, 23, 6, 0x3FF0_4D5F_3B1A_957A),
            (stream(7), 0, 11, 4, 6, 0x3FF9_AA59_B529_D048),
            (stream(0), 0, 2, 5, 3, 0x3FF1_9CFE_2BE6_2FBB),
            (42, 3, 3, 9, 0, 0x3FFA_690B_1282_CEAC),
            (42, 3, 3, 9, 3, 0x3FF0_A02F_46C1_9EEA),
            (42, 3, 3, 9, 6, 0x3FF8_0E74_19F5_1519),
        ];
        for (seed, batch, task, worker, slot, bits) in golden {
            let e = SeededBudgets::new(seed, batch, (0.5, 1.75), 7).epsilon(task, worker, slot);
            assert_eq!(
                e.to_bits(),
                bits,
                "{seed:#x}/{batch} ({task}, {worker}, {slot})"
            );
        }
        // lo == hi draws the constant without hashing.
        let flat = SeededBudgets::new(1, 0, (1.0, 1.0), 3);
        assert!((0..3).all(|u| flat.epsilon(5, 6, u).to_bits() == 1.0f64.to_bits()));
    }
}
