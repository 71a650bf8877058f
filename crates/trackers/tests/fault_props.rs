//! Fault-injection property tests for [`SpaceSaving`]'s fault surface,
//! mirroring `crates/core/tests/fault_props.rs` for the Mithril table:
//! after arbitrary injected entry corruption, `self_check` detects every
//! net change to the stored counters, `repair` restores every structural
//! invariant, and the repaired tracker stays in decision lockstep with an
//! identically corrupted and repaired [`NaiveSpaceSaving`].
//!
//! Both trackers hold identical unbounded `u64` counters, so an identical
//! fault sequence perturbs both into the same logical state. The
//! aftermath streams fill the tracker past capacity, so evictions
//! reclaim the slots an invalidation left holding [`INVALID_ITEM`]: the
//! index must answer that tag "absent" and report the eviction exactly
//! as the reference does.

use mithril_trackers::{
    FrequencyTracker, NaiveSpaceSaving, RecordOutcome, SpaceSaving, INVALID_ITEM,
};
use proptest::prelude::*;

/// One step of the warmup / aftermath streams.
#[derive(Debug, Clone, Copy)]
enum Cmd {
    Record(u64),
    TakeMax,
}

/// One injected fault. Slots / bits are taken modulo the live ranges so
/// every generated fault lands on a real entry.
#[derive(Debug, Clone, Copy)]
enum Fault {
    Flip { slot: usize, bit: u32 },
    ForceBit { slot: usize, bit: u32, one: bool },
    Invalidate { slot: usize },
}

fn cmd_stream(max_len: usize) -> impl Strategy<Value = Vec<Cmd>> {
    prop::collection::vec(
        prop_oneof![
            10 => (0u64..48).prop_map(Cmd::Record),
            1 => Just(Cmd::TakeMax),
        ],
        1..max_len,
    )
}

fn fault_stream() -> impl Strategy<Value = Vec<Fault>> {
    prop::collection::vec(
        prop_oneof![
            4 => (0usize..64, 0u32..64).prop_map(|(slot, bit)| Fault::Flip { slot, bit }),
            2 => (0usize..64, 0u32..64, any::<bool>())
                .prop_map(|(slot, bit, one)| Fault::ForceBit { slot, bit, one }),
            2 => (0usize..64).prop_map(|slot| Fault::Invalidate { slot }),
        ],
        1..12,
    )
}

/// Drives both trackers and returns how many evictions reclaimed an
/// invalidated slot.
fn drive(fast: &mut SpaceSaving, naive: &mut NaiveSpaceSaving, cmds: &[Cmd]) -> usize {
    let mut reclaimed = 0;
    for (i, cmd) in cmds.iter().enumerate() {
        match *cmd {
            Cmd::Record(item) => {
                let outcome = fast.record_outcome(item);
                assert_eq!(
                    outcome,
                    naive.record_outcome(item),
                    "record diverged at step {i}"
                );
                if outcome == RecordOutcome::Evicted(INVALID_ITEM) {
                    reclaimed += 1;
                }
            }
            Cmd::TakeMax => {
                assert_eq!(
                    fast.take_max_reset_to_min(),
                    naive.take_max_reset_to_min(),
                    "selection diverged at step {i}"
                );
            }
        }
        assert_eq!(fast.spread(), naive.spread(), "spread diverged at step {i}");
    }
    reclaimed
}

/// Applies `faults` identically to both trackers (slot/bit wrapped to the
/// tracker's live ranges).
fn inject(fast: &mut SpaceSaving, naive: &mut NaiveSpaceSaving, faults: &[Fault]) {
    let cap = fast.counter_slots();
    for f in faults {
        match *f {
            Fault::Flip { slot, bit } => {
                let slot = slot % cap;
                assert_eq!(
                    fast.flip_counter_bit(slot, bit),
                    naive.flip_counter_bit(slot, bit)
                );
            }
            Fault::ForceBit { slot, bit, one } => {
                let slot = slot % cap;
                assert_eq!(
                    fast.force_counter_bit(slot, bit, one),
                    naive.force_counter_bit(slot, bit, one)
                );
            }
            Fault::Invalidate { slot } => {
                let slot = slot % cap;
                assert_eq!(fast.invalidate_entry(slot), naive.invalidate_entry(slot));
            }
        }
    }
}

/// The occupied slots' `(item, count)` pairs, sorted.
fn contents(entries: impl Iterator<Item = mithril_trackers::TrackedEntry>) -> Vec<(u64, u64)> {
    let mut v: Vec<_> = entries.map(|e| (e.item, e.count)).collect();
    v.sort_unstable();
    v
}

proptest! {
    /// Differential detect/repair: every counter-changing fault is
    /// detected by `self_check`, `repair` restores all invariants, and
    /// the repaired pair stays in decision lockstep afterwards —
    /// including evictions that reclaim invalidated slots.
    #[test]
    fn repaired_trackers_stay_in_lockstep(
        warmup in cmd_stream(600),
        faults in fault_stream(),
        aftermath in cmd_stream(400),
        cap in 1usize..24,
    ) {
        let mut fast = SpaceSaving::new(cap);
        let mut naive = NaiveSpaceSaving::new(cap);
        drive(&mut fast, &mut naive, &warmup);

        let before: Vec<u64> = fast.iter().map(|e| e.count).collect();
        inject(&mut fast, &mut naive, &faults);
        if fast.iter().map(|e| e.count).collect::<Vec<_>>() != before {
            // A silent counter change must break a structural invariant
            // (bucket value vs stored counter) and be caught.
            prop_assert!(fast.self_check().is_err(), "corruption went undetected");
        }

        fast.repair();
        naive.repair();
        prop_assert!(fast.self_check().is_ok(), "repair left invariants broken: {:?}", fast.self_check());
        prop_assert_eq!(contents(fast.iter()), contents(naive.iter()), "post-repair contents diverged");

        drive(&mut fast, &mut naive, &aftermath);
        prop_assert!(fast.self_check().is_ok(), "post-repair traffic re-broke invariants");
        prop_assert_eq!(contents(fast.iter()), contents(naive.iter()));
    }
}

/// A full tracker whose every slot is invalidated: the next records must
/// reclaim them one by one through the eviction path, in the reference's
/// order, leaving a consistent index behind.
#[test]
fn evictions_reclaim_invalidated_slots() {
    let cap = 6;
    let mut fast = SpaceSaving::new(cap);
    let mut naive = NaiveSpaceSaving::new(cap);
    let fill: Vec<Cmd> = (0..cap as u64).map(Cmd::Record).collect();
    drive(&mut fast, &mut naive, &fill);
    for slot in 0..cap {
        assert!(fast.invalidate_entry(slot));
        assert!(naive.invalidate_entry(slot));
    }
    assert_eq!(fast.self_check(), Ok(()));
    let refill: Vec<Cmd> = (100..100 + cap as u64).map(Cmd::Record).collect();
    assert_eq!(drive(&mut fast, &mut naive, &refill), cap);
    assert_eq!(fast.self_check(), Ok(()));
    for item in 100..100 + cap as u64 {
        assert_eq!(fast.tracked_count(item), Some(2));
    }
    assert_eq!(contents(fast.iter()), contents(naive.iter()));
}
