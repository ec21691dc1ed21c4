//! Deterministic noise derivation for proposal releases.
//!
//! A worker in PUCE/PGT *evaluates* a prospective release locally (the
//! PPCF/PCF gates of Algorithm 1, the best-response scan of Algorithm 4)
//! and only *publishes* it if the move is worthwhile. For that to be
//! privacy-sound the draw must be fixed per `(task, worker, slot)`:
//! publishing later reveals exactly one Laplace sample, and re-evaluating
//! an unpublished one leaks nothing new. Deriving the noise as a pure
//! function of `(seed, task, worker, slot)` also makes every run of every
//! algorithm reproducible, which the experiment harness relies on.

use crate::intern::FastMap;
use crate::Laplace;

/// A source of the `u`-th Laplace noise draw for worker `w` proposing to
/// task `t`.
pub trait NoiseSource {
    /// The noise `η` for (task `t`, worker `w`, slot `u`) under privacy
    /// budget `epsilon` (i.e. `η ~ Lap(0, 1/ε)`), deterministic in its
    /// arguments.
    fn noise(&self, task: u32, worker: u32, slot: u32, epsilon: f64) -> f64;

    /// A uniform draw in `(0, 1)` keyed the same way, recovered from the
    /// Laplace draw through its CDF (exact, since the draw is produced
    /// by the inverse CDF). Used by mechanisms that need raw uniforms,
    /// e.g. the planar Laplace of the Geo-I baseline.
    fn uniform(&self, task: u32, worker: u32, slot: u32) -> f64 {
        Laplace::mechanism(1.0).cdf(self.noise(task, worker, slot, 1.0))
    }
}

/// SplitMix64 finalizer — a fast, well-mixed 64-bit hash step.
#[inline]
pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hash-derived deterministic noise: the production [`NoiseSource`].
#[derive(Debug, Clone, Copy)]
pub struct SeededNoise {
    master: u64,
}

impl SeededNoise {
    /// Creates a source from a master seed.
    pub fn new(master: u64) -> Self {
        SeededNoise { master }
    }

    /// Derives a uniform in the open interval (0, 1) for the key.
    fn uniform(&self, task: u32, worker: u32, slot: u32) -> f64 {
        let mut h = splitmix64(self.master ^ 0xD1B5_4A32_D192_ED03);
        h = splitmix64(h ^ u64::from(task));
        h = splitmix64(h ^ (u64::from(worker) << 32));
        h = splitmix64(h ^ u64::from(slot).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        // 53 random bits -> (0, 1), nudged off the endpoints so the
        // Laplace quantile stays finite.
        let u = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        u.clamp(1e-15, 1.0 - 1e-15)
    }
}

impl NoiseSource for SeededNoise {
    fn noise(&self, task: u32, worker: u32, slot: u32, epsilon: f64) -> f64 {
        Laplace::mechanism(epsilon).sample_from_uniform(self.uniform(task, worker, slot))
    }
}

/// A scripted noise table for tests that replay the paper's worked
/// examples with exact obfuscated distances. Keys not present fall back
/// to zero noise (so partially scripted scenarios remain usable).
#[derive(Debug, Clone, Default)]
pub struct ScriptedNoise {
    table: FastMap<(u32, u32, u32), f64>,
}

impl ScriptedNoise {
    /// Creates an empty script (all-zero noise).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the noise value for (task, worker, slot).
    pub fn set(&mut self, task: u32, worker: u32, slot: u32, noise: f64) -> &mut Self {
        self.table.insert((task, worker, slot), noise);
        self
    }

    /// Builds a script from `((task, worker, slot), noise)` entries.
    pub fn from_entries(entries: &[((u32, u32, u32), f64)]) -> Self {
        let mut s = Self::new();
        for &((t, w, u), n) in entries {
            s.set(t, w, u, n);
        }
        s
    }
}

impl NoiseSource for ScriptedNoise {
    fn noise(&self, task: u32, worker: u32, slot: u32, _epsilon: f64) -> f64 {
        self.table
            .get(&(task, worker, slot))
            .copied()
            .unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_noise_is_deterministic() {
        let s = SeededNoise::new(42);
        let a = s.noise(1, 2, 0, 1.0);
        let b = s.noise(1, 2, 0, 1.0);
        assert_eq!(a, b);
    }

    #[test]
    fn different_keys_give_different_noise() {
        let s = SeededNoise::new(42);
        let base = s.noise(1, 2, 0, 1.0);
        assert_ne!(base, s.noise(1, 2, 1, 1.0));
        assert_ne!(base, s.noise(1, 3, 0, 1.0));
        assert_ne!(base, s.noise(2, 2, 0, 1.0));
        assert_ne!(base, SeededNoise::new(43).noise(1, 2, 0, 1.0));
    }

    #[test]
    fn seeded_noise_scales_with_epsilon() {
        // Same key, bigger budget => same uniform through a tighter
        // quantile, so |noise| shrinks proportionally.
        let s = SeededNoise::new(7);
        let loose = s.noise(0, 0, 0, 0.5);
        let tight = s.noise(0, 0, 0, 5.0);
        assert!((loose / tight - 10.0).abs() < 1e-9);
    }

    #[test]
    fn seeded_noise_is_roughly_centred() {
        let s = SeededNoise::new(2024);
        let n = 50_000;
        let mut sum = 0.0;
        for i in 0..n {
            sum += s.noise(i, i >> 3, i % 7, 1.0);
        }
        assert!((sum / n as f64).abs() < 0.05);
    }

    #[test]
    fn scripted_noise_returns_table_values() {
        let s = ScriptedNoise::from_entries(&[((0, 0, 0), 0.5), ((0, 0, 1), -0.2)]);
        assert_eq!(s.noise(0, 0, 0, 1.0), 0.5);
        assert_eq!(s.noise(0, 0, 1, 99.0), -0.2);
        assert_eq!(s.noise(5, 5, 5, 1.0), 0.0); // default
    }
}
