//! Deterministic hashing and dense-symbol scratch tables for the
//! streaming hot path.
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
//!
//! [`EpochTable`] is a `Vec`-backed scratch table indexed by dense
//! [`Sym`] symbols. Symbols are an implementation detail: nothing
//! serialized, logged, or compared across runs may depend on their
//! values.

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

/// A dense symbol: the index of an [`EpochTable`] entry.
pub type Sym = u32;

/// A per-window scratch table mapping symbols to `V`, cleared in O(set
/// bits) between windows via an epoch stamp instead of a full wipe.
///
/// This replaces the per-window `BTreeMap<id, V>` scratch maps in the
/// session stepper: reads/writes are a bounds-checked `Vec` index, and
/// "clearing" is a single counter bump. The table remembers which
/// symbols were set this epoch (`touched`) so callers can still iterate
/// the window's entries — in *symbol* order, which is only safe for
/// artefacts that re-sort by logical id downstream.
#[derive(Debug, Clone)]
pub struct EpochTable<V> {
    stamp: Vec<u32>,
    vals: Vec<Option<V>>,
    epoch: u32,
    touched: Vec<Sym>,
}

impl<V> Default for EpochTable<V> {
    fn default() -> Self {
        Self {
            stamp: Vec::new(),
            vals: Vec::new(),
            epoch: 1,
            touched: Vec::new(),
        }
    }
}

impl<V> EpochTable<V> {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drop all entries; O(1) plus the deferred cost of overwriting
    /// stale values on next touch.
    #[inline]
    pub fn clear(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrapped: stale stamps could collide with the new epoch.
            self.stamp.iter_mut().for_each(|s| *s = 0);
            self.epoch = 1;
        }
        self.touched.clear();
    }

    #[inline]
    fn grow(&mut self, sym: Sym) {
        let need = sym as usize + 1;
        if self.stamp.len() < need {
            self.stamp.resize(need, 0);
            self.vals.resize_with(need, || None);
        }
    }

    /// Insert or overwrite the entry for `sym` this epoch.
    #[inline]
    pub fn insert(&mut self, sym: Sym, val: V) {
        self.grow(sym);
        let i = sym as usize;
        if self.stamp[i] != self.epoch {
            self.stamp[i] = self.epoch;
            self.touched.push(sym);
        }
        self.vals[i] = Some(val);
    }

    /// The entry for `sym` this epoch, if set.
    #[inline]
    pub fn get(&self, sym: Sym) -> Option<&V> {
        let i = sym as usize;
        if i < self.stamp.len() && self.stamp[i] == self.epoch {
            self.vals[i].as_ref()
        } else {
            None
        }
    }

    /// Symbols set this epoch, in touch order.
    #[inline]
    pub fn touched(&self) -> &[Sym] {
        &self.touched
    }
}

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

    #[test]
    fn epoch_table_clears_in_constant_time() {
        let mut t = EpochTable::new();
        t.insert(5, "a");
        t.insert(2, "b");
        assert_eq!(t.get(5), Some(&"a"));
        assert_eq!(t.touched(), &[5, 2]);
        t.clear();
        assert_eq!(t.get(5), None);
        assert!(t.touched().is_empty());
        t.insert(5, "c");
        assert_eq!(t.get(5), Some(&"c"));
        assert_eq!(t.get(2), None);
    }

    #[test]
    fn epoch_table_overwrite_keeps_single_touch() {
        let mut t = EpochTable::new();
        t.insert(1, 10);
        t.insert(1, 20);
        assert_eq!(t.touched(), &[1]);
        assert_eq!(t.get(1), Some(&20));
    }
}
