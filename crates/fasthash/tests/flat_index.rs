//! Differential oracle for [`FlatIndex`]: random insert/get/increment/
//! remove/range-remove/clear streams are applied to the index and to a
//! `std::collections::HashMap`, and after every operation the two must
//! hold the same number of keys and the same value for every key.
//!
//! Writes stay inside the key range; reads and removals also name keys
//! past it, `u64::MAX` included (the Mithril table removes `u64::MAX`
//! when it reclaims an invalidated slot), which must read as absent.
//! Every case starts before the first write, when the index holds no
//! words yet.

use std::collections::HashMap;

use mithril_fasthash::FlatIndex;
use proptest::prelude::*;

/// Keys of the index under test: small, so every key is compared after
/// every operation.
const KEYS: u64 = 48;

/// Keys past the range that reads and removals also name.
const PAST: [u64; 4] = [KEYS, KEYS + 1, 1 << 40, u64::MAX];

#[derive(Debug, Clone, Copy)]
enum Op {
    Insert(u64, u32),
    Get(u64),
    Increment(u64),
    Remove(u64),
    RemoveRange(u64, u64),
    Clear,
}

/// An in-range key, or one past the range one time in five.
fn any_key() -> impl Strategy<Value = u64> {
    prop_oneof![4 => 0..KEYS, 1 => (0..PAST.len()).prop_map(|i| PAST[i])]
}

fn op_stream() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            6 => (0..KEYS, 1u32..1_000).prop_map(|(k, v)| Op::Insert(k, v)),
            3 => any_key().prop_map(Op::Get),
            4 => (0..KEYS).prop_map(Op::Increment),
            5 => any_key().prop_map(Op::Remove),
            2 => (0..KEYS + 8, 0u64..16).prop_map(|(lo, n)| Op::RemoveRange(lo, lo + n)),
            1 => Just(Op::Clear),
        ],
        1..400,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn flat_index_matches_hashmap(ops in op_stream()) {
        let mut index = FlatIndex::new(KEYS);
        let mut model: HashMap<u64, u32> = HashMap::new();
        for (step, &op) in ops.iter().enumerate() {
            match op {
                Op::Insert(k, v) => {
                    prop_assert_eq!(index.insert(k, v), model.insert(k, v), "step {step}");
                }
                Op::Get(k) => {
                    prop_assert_eq!(index.get(k), model.get(&k).copied(), "step {step}");
                    prop_assert_eq!(index.contains(k), model.contains_key(&k));
                }
                Op::Increment(k) => {
                    let want = model.entry(k).or_insert(0);
                    *want += 1;
                    prop_assert_eq!(index.increment(k), *want, "step {step}");
                }
                Op::Remove(k) => {
                    prop_assert_eq!(index.remove(k), model.remove(&k), "step {step}");
                }
                Op::RemoveRange(lo, hi) => {
                    index.remove_range(lo, hi);
                    model.retain(|&k, _| !(lo..hi).contains(&k));
                }
                Op::Clear => {
                    index.clear();
                    model.clear();
                }
            }
            prop_assert_eq!(index.len(), model.len(), "len after step {step}");
            prop_assert_eq!(index.is_empty(), model.is_empty());
            for k in (0..KEYS).chain(PAST) {
                prop_assert_eq!(index.get(k), model.get(&k).copied(), "key {k} after step {step}");
            }
        }
    }
}
