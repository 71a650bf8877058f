//! Shared fast hashing for the hot paths of the reproduction.
//!
//! Every DRAM activation updates a few keyed lookups, so their cost is a
//! first-order term of simulation throughput. The per-ACT ones — the
//! Mithril table's row index and the disturbance oracle's per-victim
//! counts — are [`RowIndex`]es: small open-addressed tables with linear
//! probing from a Fibonacci-hashed home slot, with the empty marker in
//! the value word so no key is reserved. A single bank driven ACT after
//! ACT keeps both in a [`FlatIndex`] instead: the same value words, one
//! per row. Everything else keyed (the
//! LLC's MSHR, the simulator's miss waiters, trace statistics, baseline
//! side tables) stays in a `HashMap`. `std`'s default hasher is
//! SipHash-1-3 — a keyed DoS-resistant hash that costs tens of cycles per
//! `u64`. None of these
//! structures face attacker-controlled keys across a trust boundary (they
//! model *hardware CAMs*), so this crate provides cheaper families:
//!
//! * [`RowIndex`] — the open-addressed row index of the per-ACT tables.
//! * [`FlatIndex`] — its flat twin, one value word per row of a bank.
//! * [`FxHasher64`] / [`FastHashMap`] — a multiply-fold hasher in the
//!   FxHash/multiply-shift tradition for `HashMap`-style containers: one
//!   XOR + one multiply + one rotate per 8-byte word.
//! * [`Fnv64`] / [`fnv1a64`] — streaming 64-bit FNV-1a, the checksum of
//!   the MTRC trace format and of the sweep journal.
//! * [`MultiplyShiftHasher`] — the 2-universal multiply-shift family
//!   (Dietzfelbinger et al.) for power-of-two sketch ranges, used by
//!   BlockHammer's counting Bloom filter; this is the hash family hardware
//!   sketches implement.
//!
//! The hashers are seeded/finalized through [`splitmix64`] so that the
//! near-sequential row addresses DRAM workloads produce do not collide
//! systematically.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

mod flat;
mod index;

pub use flat::FlatIndex;
pub use index::{IndexKey, RowIndex};

/// One round of the splitmix64 mixing function.
///
/// Used as a seed expander and as a pre-hash finalizer wherever sequential
/// keys (row addresses, line addresses) must be spread across buckets.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The deterministic RNG seed of stream `shard` under `base`.
///
/// One half of the workspace-wide seed-derivation contract (the other is
/// [`splitmix64_seed`]): a *shard* (a work-stealing shard in the runner
/// engine, a recorded trace, a workload stream) gets a seed that depends
/// only on `(base, shard)` — never on which thread computed it or when.
#[inline]
pub(crate) fn splitmix64_shard(base: u64, shard: u64) -> u64 {
    splitmix64(base ^ splitmix64(shard).rotate_left(17))
}

/// The deterministic per-item RNG seed at `offset` within shard `shard`
/// under `base`.
///
/// This is the seed-derivation helper shared by the runner's sharded
/// engine (`mithril_runner::engine::item_seed`), workload seeding, and
/// trace record/replay: an item's seed is a pure function of its position
/// `(shard, offset)` and the base seed, so results are bit-identical at
/// any worker-thread count. Extracted here so every consumer derives
/// seeds through the *same* construction.
///
/// # Example
///
/// ```
/// use mithril_fasthash::splitmix64_seed;
///
/// // Position-determined: same inputs, same seed.
/// assert_eq!(splitmix64_seed(1, 2, 3), splitmix64_seed(1, 2, 3));
/// // Any coordinate change gives an unrelated seed.
/// assert_ne!(splitmix64_seed(1, 2, 3), splitmix64_seed(1, 2, 4));
/// assert_ne!(splitmix64_seed(1, 2, 3), splitmix64_seed(1, 3, 3));
/// assert_ne!(splitmix64_seed(1, 2, 3), splitmix64_seed(2, 2, 3));
/// ```
#[inline]
pub fn splitmix64_seed(base: u64, shard: u64, offset: u64) -> u64 {
    splitmix64(splitmix64_shard(base, shard) ^ offset.wrapping_add(1))
}

/// A fast multiply-fold hasher for in-process hash maps.
///
/// Follows the FxHash recipe (fold each word with XOR-multiply-rotate).
/// Not DoS-resistant — use only for keys that are not adversarial inputs,
/// which holds for every map in this workspace (they model hardware state
/// indexed by physical row/line addresses).
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher64 {
    hash: u64,
}

impl FxHasher64 {
    const K: u64 = 0x517C_C1B7_2722_0A95; // pi-derived odd constant (FxHash)

    #[inline]
    fn fold(&mut self, word: u64) {
        self.hash = (self.hash ^ word).wrapping_mul(Self::K).rotate_left(5);
    }
}

impl Hasher for FxHasher64 {
    #[inline]
    fn finish(&self) -> u64 {
        // A final avalanche so low-entropy single-word keys (sequential row
        // ids) still differ in the top bits HashMap uses for its control
        // bytes.
        splitmix64(self.hash)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.fold(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.fold(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.fold(n);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.fold(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.fold(n as u64);
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.fold(n as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.fold(n as u64);
    }
}

/// `BuildHasher` for [`FxHasher64`].
pub type BuildFastHasher = BuildHasherDefault<FxHasher64>;

/// A `HashMap` keyed through [`FxHasher64`]; drop-in for `std::HashMap`.
pub type FastHashMap<K, V> = HashMap<K, V, BuildFastHasher>;

/// A member of the multiply-shift universal hash family.
///
/// Maps a `u64` key to a bucket in `[0, 2^out_bits)`. 2-universal for
/// power-of-two ranges; this is the family hardware sketch structures
/// (Count-Min Sketch, counting Bloom filters) implement, and the exemplar
/// multiply-shift idiom (`(seed * hash) >> shift`).
///
/// # Example
///
/// ```
/// use mithril_fasthash::MultiplyShiftHasher;
///
/// let h = MultiplyShiftHasher::new(42, 10);
/// let b = h.bucket(0xDEAD_BEEF);
/// assert!(b < 1024);
/// // Deterministic:
/// assert_eq!(b, MultiplyShiftHasher::new(42, 10).bucket(0xDEAD_BEEF));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MultiplyShiftHasher {
    multiplier: u64,
    out_bits: u32,
}

impl MultiplyShiftHasher {
    /// Creates a hasher for range `[0, 2^out_bits)` seeded by `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `out_bits` is 0 or greater than 63.
    pub fn new(seed: u64, out_bits: u32) -> Self {
        assert!(out_bits > 0 && out_bits < 64, "out_bits must be in 1..=63");
        // Derive an odd multiplier from the seed with a splitmix64 round so
        // that consecutive seeds give unrelated hash functions.
        let multiplier = splitmix64(seed) | 1;
        Self {
            multiplier,
            out_bits,
        }
    }

    /// Hashes `key` into `[0, 2^out_bits)`.
    #[inline]
    pub fn bucket(&self, key: u64) -> usize {
        let mixed = splitmix64(key);
        (mixed.wrapping_mul(self.multiplier) >> (64 - self.out_bits)) as usize
    }

    /// The number of output buckets, `2^out_bits`.
    pub fn range(&self) -> usize {
        1usize << self.out_bits
    }
}

/// Streaming 64-bit FNV-1a: the integrity check of MTRC trace headers
/// and chunks and of sweep-journal lines. Not cryptographic: it guards
/// against bit rot and truncation, not malice, which is what a file on
/// disk needs.
///
/// # Example
///
/// ```
/// use mithril_fasthash::{fnv1a64, Fnv64};
///
/// let mut h = Fnv64::new();
/// h.update(b"mith");
/// h.update(b"ril");
/// assert_eq!(h.finish(), fnv1a64(b"mithril"));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// A fresh state (the FNV-1a 64-bit offset basis).
    #[inline]
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    /// Folds one byte into the state.
    #[inline(always)]
    pub fn byte(&mut self, b: u8) {
        self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }

    /// Folds every byte of `bytes`, in order.
    #[inline]
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.byte(b);
        }
    }

    /// The hash of every byte folded so far.
    #[inline]
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

/// The 64-bit FNV-1a hash of `bytes`.
#[inline]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.update(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn fast_map_behaves_like_hashmap() {
        let mut m: FastHashMap<u64, u64> = FastHashMap::default();
        for i in 0..1000u64 {
            m.insert(i, i * 2);
        }
        for i in 0..1000u64 {
            assert_eq!(m.get(&i), Some(&(i * 2)));
        }
        assert_eq!(m.remove(&500), Some(1000));
        assert_eq!(m.len(), 999);
    }

    #[test]
    fn hasher_spreads_sequential_keys() {
        use std::hash::BuildHasher;
        let b = BuildFastHasher::default();
        let mut tops: HashSet<u8, BuildFastHasher> = HashSet::default();
        for k in 0u64..256 {
            tops.insert((b.hash_one(k) >> 57) as u8);
        }
        // Sequential keys must cover most of the 7-bit control-byte space
        // HashMap probes with.
        assert!(tops.len() > 64, "only {} distinct top bytes", tops.len());
    }

    #[test]
    fn hasher_handles_unaligned_bytes() {
        use std::hash::Hasher;
        let mut a = FxHasher64::default();
        a.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]);
        let mut b = FxHasher64::default();
        b.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12]);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn multiply_shift_bucket_in_range() {
        let h = MultiplyShiftHasher::new(7, 5);
        for key in 0..10_000u64 {
            assert!(h.bucket(key) < 32);
        }
        assert_eq!(MultiplyShiftHasher::new(0, 3).range(), 8);
    }

    #[test]
    fn multiply_shift_seeds_differ() {
        let a = MultiplyShiftHasher::new(1, 16);
        let b = MultiplyShiftHasher::new(2, 16);
        let differing = (0..1000u64).filter(|&k| a.bucket(k) != b.bucket(k)).count();
        assert!(
            differing > 900,
            "seeds should give mostly different buckets"
        );
    }

    #[test]
    fn multiply_shift_spreads_sequential_keys() {
        // Row addresses arrive sequentially; the finalizer must spread them.
        let h = MultiplyShiftHasher::new(3, 8);
        let buckets: HashSet<usize> = (0..256u64).map(|key| h.bucket(key)).collect();
        assert!(
            buckets.len() > 128,
            "sequential keys collapsed into {} buckets",
            buckets.len()
        );
    }

    #[test]
    #[should_panic(expected = "out_bits")]
    fn zero_bits_panics() {
        let _ = MultiplyShiftHasher::new(0, 0);
    }

    #[test]
    fn seed_derivation_matches_documented_construction() {
        // The contract other crates (runner engine, trace replay) rely on:
        // splitmix64_seed is exactly splitmix64 over the shard seed XOR the
        // 1-based offset. Pin it so refactors cannot silently reseed every
        // recorded sweep baseline.
        let base = 42;
        let shard = splitmix64(base ^ splitmix64(7).rotate_left(17));
        assert_eq!(splitmix64_shard(base, 7), shard);
        assert_eq!(splitmix64_seed(base, 7, 3), splitmix64(shard ^ 4));
    }

    #[test]
    fn seed_derivation_does_not_collide_over_small_grid() {
        let mut seen: HashSet<u64, BuildFastHasher> = HashSet::default();
        for base in 0..4u64 {
            for shard in 0..16u64 {
                for offset in 0..16u64 {
                    seen.insert(splitmix64_seed(base, shard, offset));
                }
            }
        }
        assert_eq!(seen.len(), 4 * 16 * 16, "seed grid must not collide");
    }
}
