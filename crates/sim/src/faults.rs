//! Deterministic soft-error injection for Row Hammer tracker state.
//!
//! Mithril's safety argument rests on the per-bank counter table staying
//! intact, but real SRAM/CAM state takes soft errors. This module makes
//! that failure mode *measurable*: a [`FaultyEngine`] wraps any
//! [`DramMitigation`] and, driven by a seeded [`FaultPlan`], injects the
//! three fault classes of the taxonomy in `ARCHITECTURE.md` into the
//! engine's [`FaultSurface`]:
//!
//! * **counter bit-flips** — transient single-event upsets of stored
//!   count bits, applied silently (derived structures are not told);
//! * **entry invalidations** — address-CAM tag upsets: the slot stops
//!   tracking its row, degrading effective table capacity;
//! * **stuck-at faults** — a bit that re-asserts a fixed level; the
//!   wrapper re-forces every registered stuck bit each RFM window.
//!
//! With `scrub` enabled (the default), the wrapper models an ECC-style
//! scrub pass at RFM cadence: the surface's structural `check` runs and,
//! on a detected violation, `repair` rebuilds derived state from the
//! stored bits — so schemes degrade measurably instead of corrupting
//! silently. With `scrub` off, the same campaign quantifies *silent*
//! degradation.
//!
//! # Determinism
//!
//! A plan's entire fault stream is a pure function of its seed, and the
//! seed is derived from the sweep position through
//! [`mithril_fasthash::splitmix64_seed`] — the workspace-wide seed
//! contract — so fault campaigns are bit-identical at any `--threads`
//! count. One plan draw is consumed per observed ACT; draws and
//! injections depend only on the engine's own command stream, never on
//! scheduling.

use mithril_dram::{DramMitigation, FaultStats, FaultSurface, RfmOutcome, RowId};
use mithril_fasthash::{splitmix64, splitmix64_seed};

/// The three injectable fault classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Transient bit-flip of a stored counter bit.
    BitFlip,
    /// Address-tag upset: the entry stops tracking its row.
    Invalidate,
    /// A counter bit permanently stuck at 0 or 1.
    StuckAt,
}

/// Fault-injection knobs. `Copy` so it rides inside scenario configs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultConfig {
    /// Expected injected faults per million observed ACTs.
    pub rate_ppm: u64,
    /// Relative draw weight of [`FaultKind::BitFlip`].
    pub flip_weight: u8,
    /// Relative draw weight of [`FaultKind::Invalidate`].
    pub invalidate_weight: u8,
    /// Relative draw weight of [`FaultKind::StuckAt`].
    pub stuck_weight: u8,
    /// Run a self-check (and repair on detection) each RFM window.
    pub scrub: bool,
}

impl FaultConfig {
    /// Pure transient bit-flips at `rate_ppm` faults per million ACTs,
    /// scrub on.
    pub fn flips(rate_ppm: u64) -> Self {
        Self {
            rate_ppm,
            flip_weight: 1,
            invalidate_weight: 0,
            stuck_weight: 0,
            scrub: true,
        }
    }

    /// The default campaign mix — bit-flips dominant, occasional tag
    /// upsets and stuck bits (8:3:1) — scrub on.
    pub fn mixed(rate_ppm: u64) -> Self {
        Self {
            rate_ppm,
            flip_weight: 8,
            invalidate_weight: 3,
            stuck_weight: 1,
            scrub: true,
        }
    }

    /// The same configuration with scrubbing disabled (silent-corruption
    /// mode).
    pub fn without_scrub(mut self) -> Self {
        self.scrub = false;
        self
    }

    fn total_weight(&self) -> u64 {
        self.flip_weight as u64 + self.invalidate_weight as u64 + self.stuck_weight as u64
    }
}

/// A seeded, position-pure stream of fault decisions.
///
/// The stream is the canonical splitmix64 sequence over its seed: one
/// draw per observed ACT decides *whether* a fault lands, and on a hit
/// further draws pick the kind, entry and bit. Two plans built at the
/// same `(base, shard, offset)` position produce identical campaigns.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    state: u64,
}

impl FaultPlan {
    /// Golden-ratio increment of the canonical splitmix64 generator.
    const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

    /// A plan seeded directly.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// A plan at sweep position `(shard, offset)` under `base` — the
    /// workspace seed contract, so fault streams are thread-count
    /// invariant.
    pub fn at_position(base: u64, shard: u64, offset: u64) -> Self {
        Self::new(splitmix64_seed(base, shard, offset))
    }

    /// Next raw draw of the stream.
    fn next(&mut self) -> u64 {
        let out = splitmix64(self.state);
        self.state = self.state.wrapping_add(Self::GAMMA);
        out
    }
}

/// A registered stuck-at fault: `(entry, bit)` held at `one`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct StuckBit {
    entry: u64,
    bit: u32,
    one: bool,
}

/// A fault-injecting adapter around any [`DramMitigation`] engine.
///
/// Delegates the full engine interface to the wrapped engine; on every
/// observed ACT it advances its [`FaultPlan`] and possibly injects one
/// fault into the engine's [`FaultSurface`], and on every RFM window it
/// re-asserts registered stuck bits and (if configured) runs a scrub
/// pass. Engines without a fault surface still work — draws that land
/// count as `dropped` in [`FaultStats`], keeping campaign accounting
/// honest for schemes the fault model cannot reach.
///
/// # Example
///
/// ```
/// use mithril_dram::{DramMitigation, NoMitigation};
/// use mithril_sim::{FaultConfig, FaultPlan, FaultyEngine};
///
/// // NoMitigation has no fault surface: every landed fault is dropped.
/// let mut e = FaultyEngine::new(
///     Box::new(NoMitigation),
///     FaultConfig::mixed(1_000_000),
///     FaultPlan::at_position(7, 0, 0),
/// );
/// for row in 0..100 {
///     e.on_activate(row);
/// }
/// let stats = e.fault_stats().unwrap();
/// assert_eq!(stats.injected(), 0);
/// assert_eq!(stats.dropped, 100);
/// ```
pub struct FaultyEngine {
    inner: Box<dyn DramMitigation>,
    cfg: FaultConfig,
    plan: FaultPlan,
    stuck: Vec<StuckBit>,
    stats: FaultStats,
}

impl FaultyEngine {
    /// Wraps `inner`, injecting per `cfg` from `plan`.
    pub fn new(inner: Box<dyn DramMitigation>, cfg: FaultConfig, plan: FaultPlan) -> Self {
        Self {
            inner,
            cfg,
            plan,
            stuck: Vec::new(),
            stats: FaultStats::default(),
        }
    }

    /// The wrapped engine.
    pub fn inner(&self) -> &dyn DramMitigation {
        &*self.inner
    }

    fn draw_kind(&mut self) -> FaultKind {
        let total = self.cfg.total_weight().max(1);
        let mut roll = self.plan.next() % total;
        if roll < self.cfg.flip_weight as u64 {
            return FaultKind::BitFlip;
        }
        roll -= self.cfg.flip_weight as u64;
        if roll < self.cfg.invalidate_weight as u64 {
            return FaultKind::Invalidate;
        }
        FaultKind::StuckAt
    }

    /// One per-ACT fault decision. Consumes exactly one draw when no
    /// fault lands, so the stream position is a pure function of the
    /// ACT count.
    fn maybe_inject(&mut self) {
        if self.cfg.rate_ppm == 0 {
            return;
        }
        if self.plan.next() % 1_000_000 >= self.cfg.rate_ppm {
            return;
        }
        let kind = self.draw_kind();
        let entry_roll = self.plan.next();
        let bit_roll = self.plan.next();
        let Some(surface) = self.inner.fault_surface() else {
            self.stats.dropped += 1;
            return;
        };
        let entries = surface.fault_entries();
        if entries == 0 {
            self.stats.dropped += 1;
            return;
        }
        let entry = entry_roll % entries;
        let bit = (bit_roll % surface.counter_bits() as u64) as u32;
        match kind {
            FaultKind::BitFlip => {
                if surface.flip_counter_bit(entry, bit) {
                    self.stats.bit_flips += 1;
                } else {
                    self.stats.dropped += 1;
                }
            }
            FaultKind::Invalidate => {
                if surface.invalidate_entry(entry) {
                    self.stats.invalidations += 1;
                } else {
                    self.stats.dropped += 1;
                }
            }
            FaultKind::StuckAt => {
                // The stuck level reuses the bit roll's high bit — still
                // position-pure, no extra draw.
                let one = bit_roll >> 63 == 1;
                let fault = StuckBit { entry, bit, one };
                if self.stuck.contains(&fault) {
                    self.stats.dropped += 1;
                } else {
                    self.stuck.push(fault);
                    self.stats.stuck_bits += 1;
                    if surface.force_counter_bit(entry, bit, one) {
                        self.stats.stuck_assertions += 1;
                    }
                }
            }
        }
    }

    /// RFM-cadence maintenance: re-assert stuck bits, then scrub.
    fn on_window(&mut self) {
        if !self.stuck.is_empty() {
            if let Some(surface) = self.inner.fault_surface() {
                for i in 0..self.stuck.len() {
                    let StuckBit { entry, bit, one } = self.stuck[i];
                    if surface.force_counter_bit(entry, bit, one) {
                        self.stats.stuck_assertions += 1;
                    }
                }
            }
        }
        if self.cfg.scrub {
            if let Some(surface) = self.inner.fault_surface() {
                self.stats.scrubs += 1;
                if surface.check().is_err() {
                    self.stats.scrub_detections += 1;
                    surface.repair();
                    self.stats.repairs += 1;
                }
            }
        }
    }
}

impl DramMitigation for FaultyEngine {
    fn on_activate(&mut self, row: RowId) {
        self.inner.on_activate(row);
        self.maybe_inject();
    }

    fn on_rfm_into(&mut self, out: &mut RfmOutcome) {
        self.on_window();
        self.inner.on_rfm_into(out);
    }

    fn on_auto_refresh(&mut self, lo: RowId, hi: RowId) {
        self.inner.on_auto_refresh(lo, hi);
    }

    fn use_flat_rows(&mut self, rows: u64) {
        self.inner.use_flat_rows(rows);
    }

    fn refresh_pending(&self) -> bool {
        self.inner.refresh_pending()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn fault_surface(&mut self) -> Option<&mut dyn FaultSurface> {
        self.inner.fault_surface()
    }

    fn fault_stats(&self) -> Option<FaultStats> {
        Some(self.stats)
    }

    fn observe_tracker(&self) -> Option<mithril_obs::TrackerObservation> {
        self.inner.observe_tracker()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mithril::{MithrilConfig, MithrilScheme};
    use mithril_dram::Ddr5Timing;

    fn scheme() -> Box<dyn DramMitigation> {
        let cfg = MithrilConfig::for_flip_threshold(6_250, 128, &Ddr5Timing::ddr5_4800()).unwrap();
        Box::new(MithrilScheme::new(cfg))
    }

    fn drive(engine: &mut FaultyEngine, acts: u64) {
        for i in 0..acts {
            engine.on_activate(i % 37);
            if i % 64 == 63 {
                engine.on_rfm();
            }
        }
    }

    #[test]
    fn plan_is_position_pure() {
        let mut a = FaultPlan::at_position(42, 3, 9);
        let mut b = FaultPlan::at_position(42, 3, 9);
        let sa: Vec<u64> = (0..100).map(|_| a.next()).collect();
        let sb: Vec<u64> = (0..100).map(|_| b.next()).collect();
        assert_eq!(sa, sb);
        let mut c = FaultPlan::at_position(42, 3, 10);
        assert_ne!(sa, (0..100).map(|_| c.next()).collect::<Vec<u64>>());
    }

    #[test]
    fn identical_plans_inject_identically() {
        let mk = || {
            let mut e = FaultyEngine::new(
                scheme(),
                FaultConfig::mixed(50_000),
                FaultPlan::at_position(7, 1, 2),
            );
            drive(&mut e, 20_000);
            e.fault_stats().unwrap()
        };
        let (a, b) = (mk(), mk());
        assert_eq!(a, b);
        assert!(a.injected() > 0, "rate 5% over 20k ACTs must land: {a:?}");
    }

    #[test]
    fn zero_rate_injects_nothing() {
        let mut e = FaultyEngine::new(
            scheme(),
            FaultConfig::flips(0),
            FaultPlan::at_position(7, 0, 0),
        );
        drive(&mut e, 5_000);
        let s = e.fault_stats().unwrap();
        assert_eq!(s.injected() + s.dropped, 0);
        // Scrubs still run at RFM cadence and never detect anything.
        assert!(s.scrubs > 0);
        assert_eq!(s.scrub_detections, 0);
        assert_eq!(s.repairs, 0);
    }

    #[test]
    fn scrub_detects_and_repairs_flips() {
        let mut e = FaultyEngine::new(
            scheme(),
            FaultConfig::flips(100_000),
            FaultPlan::at_position(11, 0, 0),
        );
        drive(&mut e, 20_000);
        let s = e.fault_stats().unwrap();
        assert!(s.bit_flips > 0);
        assert!(
            s.scrub_detections > 0,
            "flips must trip the self-check: {s:?}"
        );
        assert_eq!(s.repairs, s.scrub_detections);
        // After the final window the structure is consistent again.
        e.on_rfm();
        assert!(
            e.fault_surface().unwrap().check().is_ok() || {
                // The last ACT batch may have injected after the last scrub;
                // one more window must restore consistency.
                e.on_rfm();
                e.fault_surface().unwrap().check().is_ok()
            }
        );
    }

    #[test]
    fn stuck_bits_reassert_every_window() {
        let mut e = FaultyEngine::new(
            scheme(),
            FaultConfig {
                rate_ppm: 20_000,
                flip_weight: 0,
                invalidate_weight: 0,
                stuck_weight: 1,
                scrub: true,
            },
            FaultPlan::at_position(13, 0, 0),
        );
        drive(&mut e, 30_000);
        let s = e.fault_stats().unwrap();
        assert!(s.stuck_bits > 0);
        assert!(
            s.stuck_assertions >= s.stuck_bits,
            "stuck bits must keep re-asserting: {s:?}"
        );
    }

    #[test]
    fn unscrubbed_engine_reports_no_scrubs() {
        let mut e = FaultyEngine::new(
            scheme(),
            FaultConfig::mixed(50_000).without_scrub(),
            FaultPlan::at_position(17, 0, 0),
        );
        drive(&mut e, 10_000);
        let s = e.fault_stats().unwrap();
        assert_eq!(s.scrubs, 0);
        assert_eq!(s.repairs, 0);
        assert!(s.injected() > 0);
    }

    #[test]
    fn wrapper_preserves_engine_identity() {
        let mut e = FaultyEngine::new(scheme(), FaultConfig::flips(0), FaultPlan::new(1));
        assert_eq!(e.name(), "mithril");
        e.on_activate(5);
        assert!(e.refresh_pending());
        let out = e.on_rfm();
        assert_eq!(out.selected_aggressor, Some(5));
    }
}
