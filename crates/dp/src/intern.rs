//! Deterministic hashing for the streaming hot path.
//!
//! The streaming stack keys everything by sparse logical ids (`u32`
//! task/worker ids, `u64` composite keys). [`FastMap`]/[`FastSet`]
//! alias the std hash containers with a deterministic multiplicative
//! hasher ([`FastHasher`]) for such integer keys. `SipHash` is
//! overkill for ids we generate ourselves; a fixed-key Fibonacci mix
//! is ~5× cheaper per probe and — unlike `RandomState` — hashes
//! identically in every process, which keeps any accidental
//! iteration-order dependence from becoming a cross-run
//! nondeterminism. (Canonical artefacts still must not iterate these
//! maps raw: they re-sort by logical id.)

// dpta-lint: allow(deterministic-containers) -- backing store for FastMap/FastSet, pinned to the fixed-key FastHasher below
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A deterministic integer hasher: Fibonacci multiplicative mixing
/// with a fixed odd constant (no per-process seed).
///
/// Only suitable for keys we mint ourselves (entity ids, grid cell
/// coordinates) — it makes no attempt at HashDoS resistance.
#[derive(Default)]
pub struct FastHasher(u64);

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Fallback for non-integer keys (tuples hash field-wise via the
        // integer paths below; byte slices land here).
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.write_u64(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.write_u64(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        // Rotate-xor then multiply by 2^64/φ rounded to odd; the
        // rotate keeps consecutive ids from colliding in the low bits
        // after the multiply's truncation.
        let x = self.0.rotate_left(26) ^ n;
        self.0 = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    #[inline]
    fn write_i64(&mut self, n: i64) {
        self.write_u64(n as u64);
    }

    #[inline]
    fn write_i32(&mut self, n: i32) {
        self.write_u64(n as u32 as u64);
    }
}

/// `HashMap` with the deterministic [`FastHasher`].
// dpta-lint: allow(deterministic-containers) -- this alias IS the sanctioned deterministic wrapper
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;
/// `HashSet` with the deterministic [`FastHasher`].
// dpta-lint: allow(deterministic-containers) -- this alias IS the sanctioned deterministic wrapper
pub type FastSet<K> = HashSet<K, BuildHasherDefault<FastHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_hasher_is_deterministic_and_spreads_consecutive_ids() {
        let hash = |n: u64| {
            let mut h = FastHasher::default();
            h.write_u64(n);
            h.finish()
        };
        assert_eq!(hash(42), hash(42));
        // Consecutive ids should land in different low-bit buckets.
        let buckets: FastSet<u64> = (0..64u64).map(|n| hash(n) & 63).collect();
        assert!(
            buckets.len() > 32,
            "only {} distinct buckets",
            buckets.len()
        );
    }
}
