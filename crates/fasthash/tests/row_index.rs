//! Differential oracle for [`RowIndex`]: random insert/get/increment/
//! remove/clear streams are applied to the index and to a
//! `std::collections::HashMap`, and after every operation the two must
//! hold the same number of keys and the same `(key, value)` contents.
//!
//! The key pools mix clustered row addresses, the edge keys `0` and
//! `MAX` (the tables remove `u64::MAX` when they reclaim an invalidated
//! slot), widely spaced keys, and keys whose home is the *last* slot of a
//! small slot array, so their probe runs wrap past its end. Every case
//! starts from an empty index — unallocated (`RowIndex::new`), so growth
//! from the smallest size is exercised, or sized for a few keys
//! (`RowIndex::with_capacity`), so growth from a presized array is too.

use std::collections::HashMap;
use std::fmt::Debug;
use std::hash::Hash;

use mithril_fasthash::{IndexKey, RowIndex};
use proptest::prelude::*;

/// One operation; keys are positions in the test's key pool.
#[derive(Debug, Clone, Copy)]
enum Op {
    Insert(usize, u32),
    Get(usize),
    Increment(usize),
    Remove(usize),
    Clear,
}

fn op_stream(pool: usize) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            6 => (0..pool, 1u32..1_000).prop_map(|(k, v)| Op::Insert(k, v)),
            3 => (0..pool).prop_map(Op::Get),
            4 => (0..pool).prop_map(Op::Increment),
            5 => (0..pool).prop_map(Op::Remove),
            1 => Just(Op::Clear),
        ],
        1..400,
    )
}

/// The first `n` keys (counting up from 0) whose Fibonacci home slot is
/// the last of a `2^bits`-slot array — the same multiplicative hash the
/// index seats keys with, so inserting a few of them fills the array's
/// final slot and wraps the rest of the probe run to slot 0.
fn last_slot_keys(bits: u32, n: usize) -> impl Iterator<Item = u64> {
    let last = (1u64 << bits) - 1;
    (0u64..)
        .filter(move |k| k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - bits) == last)
        .take(n)
}

/// Row addresses shaped like DRAM traffic plus the edge cases.
fn pool(max: u64) -> Vec<u64> {
    let mut keys: Vec<u64> = (1_000..1_032).collect();
    keys.extend([0, 1, max, max - 1]);
    keys.extend((1..=8).map(|i| (i << 20) & max));
    for bits in 3..=7 {
        keys.extend(last_slot_keys(bits, 4));
    }
    keys.sort_unstable();
    keys.dedup();
    keys
}

fn contents<K: IndexKey + Ord>(index: &RowIndex<K>) -> Vec<(K, u32)> {
    let mut v: Vec<_> = index.iter().collect();
    v.sort_unstable();
    v
}

fn check<K>(keys: &[K], presize: usize, ops: &[Op]) -> Result<(), TestCaseError>
where
    K: IndexKey + Ord + Hash + Debug,
{
    let mut index: RowIndex<K> = match presize {
        0 => RowIndex::new(),
        n => RowIndex::with_capacity(n),
    };
    let mut model: HashMap<K, u32> = HashMap::new();
    for (step, &op) in ops.iter().enumerate() {
        match op {
            Op::Insert(k, v) => {
                prop_assert_eq!(
                    index.insert(keys[k], v),
                    model.insert(keys[k], v),
                    "step {step}"
                );
            }
            Op::Get(k) => {
                prop_assert_eq!(
                    index.get(keys[k]),
                    model.get(&keys[k]).copied(),
                    "step {step}"
                );
                prop_assert_eq!(index.contains(keys[k]), model.contains_key(&keys[k]));
            }
            Op::Increment(k) => {
                let want = model.entry(keys[k]).or_insert(0);
                *want += 1;
                prop_assert_eq!(index.increment(keys[k]), *want, "step {step}");
            }
            Op::Remove(k) => {
                prop_assert_eq!(index.remove(keys[k]), model.remove(&keys[k]), "step {step}");
            }
            Op::Clear => {
                index.clear();
                model.clear();
            }
        }
        prop_assert_eq!(index.len(), model.len(), "len after step {step}");
        prop_assert_eq!(index.is_empty(), model.is_empty());
        let mut want: Vec<_> = model.iter().map(|(&k, &v)| (k, v)).collect();
        want.sort_unstable();
        prop_assert_eq!(contents(&index), want, "contents after step {step}");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `u64` keys: the Mithril table's rows and the tracker's items.
    #[test]
    fn u64_index_matches_hashmap(
        ops in op_stream(pool(u64::MAX).len()),
        presize in 0usize..24,
    ) {
        check(&pool(u64::MAX), presize, &ops)?;
    }

    /// `u32` keys: the disturbance oracle's rows.
    #[test]
    fn u32_index_matches_hashmap(
        ops in op_stream(pool(u32::MAX as u64).len()),
        presize in 0usize..24,
    ) {
        let keys: Vec<u32> = pool(u32::MAX as u64).into_iter().map(|k| k as u32).collect();
        check(&keys, presize, &ops)?;
    }
}
