//! Differential test of the row side: the attack harness and a one-bank
//! `DramDevice` must do the same thing to the engine, the oracle and the
//! energy counters for the same command stream.
//!
//! A seeded attack runs on an `AttackHarness` for one tREFW window, its
//! events captured in a `RingSink`. The `Act`, `Ref`, `Rfm` and
//! `RfmElided` events are then replayed into a 1-rank, 1-bank device of
//! the same row count with a fresh engine: each ACT is followed by a PRE
//! (the harness's closed-page row cycle), each RFM is preceded by an MRR
//! when Mithril+ elision is on, an elided RFM is an MRR alone, and every
//! command issues at the device's earliest legal time. Afterwards every
//! row's disturbance, the high-water mark, the flips and every energy
//! counter must agree.
//!
//! Banks of 64 and 1,000 rows make the auto-refresh pointer wrap many
//! times in the window; the replay also checks that the REF groups tile
//! the bank in order, restarting at row 0 only after the group that
//! reaches the last row.
//!
//! The harness's row side is flat: its oracle and its Mithril table's row
//! index keep one word per row. The device's banks keep both sparse. So
//! the comparison also covers the two table indexes, and the 1,000-row
//! Mithril cases must fill the table and evict from it (the flat index's
//! `remove`/`insert` path) for their run to count.

use mithril::{MithrilConfig, MithrilScheme};
use mithril_dram::{
    AttackHarness, Ddr5Timing, DramDevice, DramMitigation, Geometry, NoMitigation, RankId, RowId,
};
use mithril_obs::{Event, RingSink};

/// FlipTH the Mithril configurations are solved for.
const ENGINE_FLIP_TH: u64 = 6_250;
/// FlipTH of both oracles: low enough that flips occur and are compared.
const ORACLE_FLIP_TH: u64 = 400;
const RFM_TH: u64 = 64;
const AD_TH: u64 = 200;
/// Comfortably above one window's events (about 0.6M ACTs plus REFs and
/// RFMs), so the ring never drops one.
const RING: usize = 1 << 20;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Kind {
    Unprotected,
    Mithril,
    /// Mithril+: adaptive refresh, with the harness eliding RFMs on a
    /// clear mode-register flag.
    MithrilPlus,
}

fn engine(kind: Kind, rows: u64, radius: u64, t: &Ddr5Timing) -> Box<dyn DramMitigation> {
    let ad_th = match kind {
        Kind::Unprotected => return Box::new(NoMitigation),
        Kind::Mithril => None,
        Kind::MithrilPlus => Some(AD_TH),
    };
    let config = MithrilConfig::solve(ENGINE_FLIP_TH, RFM_TH, radius, ad_th, t)
        .unwrap()
        .with_rows_per_bank(rows);
    Box::new(MithrilScheme::new(config))
}

/// xorshift64*: a small deterministic row source.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// A mixed attack: half the ACTs hammer a few aggressors (both bank edges
/// among them, so victim walks clip), a quarter sweep rows in order, and
/// a quarter land on random rows.
fn attack(rows: u64, seed: u64) -> impl FnMut() -> RowId {
    let hot = [rows / 2 - 1, rows / 2 + 1, 0, rows - 1, 3 % rows];
    let mut rng = Rng(seed | 1);
    let mut sweep = 0;
    move || {
        let r = rng.next();
        match r % 4 {
            0 | 1 => hot[((r >> 8) % hot.len() as u64) as usize],
            2 => {
                sweep = (sweep + 1) % rows;
                sweep
            }
            _ => (r >> 16) % rows,
        }
    }
}

fn one_rank_one_bank(rows: u64) -> Geometry {
    Geometry {
        channels: 1,
        ranks: 1,
        banks_per_rank: 1,
        rows_per_bank: rows,
        ..Geometry::default()
    }
}

/// Runs one case and returns the table evictions of the harness's engine
/// (0 without a tracker), which the device's engine must match.
fn check(kind: Kind, rows: u64, radius: u64, seed: u64) -> u64 {
    let case = format!("{kind:?}, {rows} rows, blast radius {radius}, seed {seed}");
    let t = Ddr5Timing::ddr5_4800();
    let elision = kind == Kind::MithrilPlus;

    let mut h = AttackHarness::with_obs(
        t,
        engine(kind, rows, radius, &t),
        RFM_TH,
        ORACLE_FLIP_TH,
        rows,
        radius,
        RingSink::new(RING),
    );
    h.set_mrr_elision(elision);
    let mut next_row = attack(rows, seed);
    while h.try_activate(next_row()) {}
    assert_eq!(h.obs().dropped(), 0, "{case}: the ring dropped events");

    let mut dev = DramDevice::new(one_rank_one_bank(rows), t, ORACLE_FLIP_TH, radius, |_| {
        engine(kind, rows, radius, &t)
    });
    let (mut now, mut next_group, mut refs, mut wraps, mut rfms, mut elided) = (0, 0, 0, 0, 0, 0);
    for (_, event) in h.obs().iter() {
        match event {
            Event::Act { bank: 0, row } => {
                now = dev.earliest_activate(0, now);
                dev.issue_activate(0, row, now);
                now = now.max(dev.bank(0).earliest_precharge());
                dev.issue_precharge(0, now);
            }
            Event::Ref { rank: 0, banks: 1 } => {
                now = now.max(dev.bank(0).earliest_activate());
                let (_, lo, hi) = dev.issue_refresh_rank(RankId(0), now);
                assert!(
                    lo == next_group && lo < hi && hi <= rows,
                    "{case}: REF group {lo}..{hi} after {next_group}"
                );
                next_group = if hi == rows { 0 } else { hi };
                wraps += u64::from(hi == rows);
                refs += 1;
            }
            Event::Rfm {
                bank: 0,
                aggressor,
                victims,
                skipped,
            } => {
                if elision {
                    assert!(
                        dev.issue_mrr(0),
                        "{case}: MRR flag clear before an issued RFM"
                    );
                }
                now = now.max(dev.bank(0).earliest_activate());
                let (outcome, _) = dev.issue_rfm(0, now);
                assert_eq!(
                    (
                        outcome.selected_aggressor,
                        outcome.refreshed_victims.len() as u32,
                        outcome.skipped
                    ),
                    (aggressor, victims, skipped),
                    "{case}: RFM {rfms} differs"
                );
                rfms += 1;
            }
            Event::RfmElided { bank: 0 } => {
                assert!(
                    !dev.issue_mrr(0),
                    "{case}: MRR flag set before an elided RFM"
                );
                elided += 1;
            }
            Event::TableEvict { bank: 0, .. } => {}
            other => panic!("{case}: unexpected harness event {other:?}"),
        }
    }

    // The stream exercised what it is meant to.
    assert!(
        wraps >= 8,
        "{case}: the REF pointer wrapped only {wraps} times in {refs} REFs"
    );
    assert!(rfms > 0, "{case}: no RFM issued");
    assert_eq!(
        h.counters().preventive_rows > 0,
        kind != Kind::Unprotected,
        "{case}: preventive refreshes"
    );
    assert_eq!(elided > 0, elision, "{case}: {elided} RFMs elided");

    let (ho, dox) = (h.oracle(), dev.oracle(0));
    for row in 0..rows {
        assert_eq!(
            ho.disturbance(row),
            dox.disturbance(row),
            "{case}: row {row} disturbance"
        );
    }
    assert_eq!(
        ho.max_disturbance(),
        dox.max_disturbance(),
        "{case}: max disturbance"
    );
    assert_eq!(ho.flips(), dox.flips(), "{case}: flips");
    assert_eq!(h.counters(), dev.counters(), "{case}: energy counters");
    if kind == Kind::Unprotected {
        assert!(
            !ho.flips().is_empty(),
            "{case}: an unprotected bank should flip"
        );
    }
    let evictions = |e: &dyn DramMitigation| e.observe_tracker().map_or(0, |o| o.evictions);
    assert_eq!(
        evictions(h.engine()),
        evictions(dev.engine(0)),
        "{case}: table evictions"
    );
    evictions(h.engine())
}

/// Runs the four bank shapes of `kind` and requires the 1,000-row cases
/// of a tracking engine to evict from a full table.
fn check_shapes(kind: Kind, seed: u64) {
    for (rows, radius) in [(64, 1), (64, 2), (1_000, 1), (1_000, 2)] {
        let evictions = check(kind, rows, radius, seed);
        if kind != Kind::Unprotected && rows == 1_000 {
            assert!(
                evictions > 0,
                "{kind:?}, {rows} rows, radius {radius}: the table never evicted"
            );
        }
    }
}

#[test]
fn unprotected_bank_agrees() {
    check_shapes(Kind::Unprotected, 11);
}

#[test]
fn mithril_bank_agrees() {
    check_shapes(Kind::Mithril, 12);
}

#[test]
fn mithril_plus_bank_with_elision_agrees() {
    check_shapes(Kind::MithrilPlus, 13);
}
