//! BlockHammer (Yağlıkçı et al., HPCA 2021): blacklist-and-throttle.
//!
//! BlockHammer tracks activation rates with a pair of time-interleaved
//! counting Bloom filters (CBFs). Each CBF covers an epoch of `tCBF`
//! (≈ tREFW); the two epochs overlap by half so a rolling window is always
//! over-approximated. A row whose CBF estimate reaches the blacklist
//! threshold `NBL` is throttled: its next activation is delayed so that no
//! aggressor can exceed its share of FlipTH within the window. The paper's
//! footnote gives `tDelay = (tCBF − NBL×tRC)/(FlipTH − NBL)`; since two
//! aggressors share a victim (double-sided), the per-aggressor cap must be
//! `FlipTH/2` — which is also why the paper requires `NBL < FlipTH/2` — so
//! we instantiate the equation with that cap:
//!
//! ```text
//! tDelay = (tCBF − NBL × tRC) / (FlipTH/2 − NBL)
//! ```
//!
//! Throttling needs no DRAM cooperation, but (a) the CBF aliases benign
//! rows onto attacker-inflated counters — the performance-adversarial
//! pattern of paper Fig. 10(c) — and (b) at low FlipTH the blacklist
//! threshold sinks below benign per-row ACT counts, throttling legitimate
//! memory-intensive threads (Fig. 10(a)).

use crate::trackers::CountingBloomFilter;
use mithril_dram::{BankId, Ddr5Timing, RowId, TimePs};
use mithril_fasthash::FastHashMap;
use mithril_memctrl::{McAction, McMitigation};

/// BlockHammer configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockHammerConfig {
    /// Counters per CBF (must be a power of two).
    pub cbf_counters: usize,
    /// Hash functions per CBF.
    pub cbf_hashes: usize,
    /// Blacklist threshold `NBL` (possibly rescaled, see
    /// [`BlockHammerConfig::with_nbl_scaled`]).
    pub nbl: u64,
    /// The Row Hammer threshold being protected.
    pub flip_th: u64,
    /// CBF epoch (`tCBF`), typically tREFW.
    pub t_cbf: TimePs,
    /// Row cycle time (for the delay equation).
    pub trc: TimePs,
    /// The throttle delay, fixed at construction from the *paper-scale*
    /// parameters so that NBL rescaling (short-slice simulation) keeps the
    /// real delay magnitude.
    pub t_delay: TimePs,
}

impl BlockHammerConfig {
    /// The paper's Section VI-A configurations, keyed by FlipTH
    /// (`(CBF size, NBL)` pairs from the text).
    ///
    /// # Panics
    ///
    /// Panics if `flip_th` is not one of the six evaluated thresholds.
    pub fn for_flip_threshold(flip_th: u64, timing: &Ddr5Timing) -> Self {
        let (counters, nbl) = match flip_th {
            50_000 => (1024, 17_100),
            25_000 => (1024, 8_600),
            12_500 => (1024, 4_300),
            6_250 => (2048, 2_100),
            3_125 => (4096, 1_100),
            1_500 => (8192, 490),
            other => panic!("no BlockHammer configuration for FlipTH {other}"),
        };
        assert!(nbl < flip_th / 2, "NBL must be below FlipTH/2");
        let t_cbf = timing.trefw;
        Self {
            cbf_counters: counters,
            cbf_hashes: 4,
            nbl,
            flip_th,
            t_cbf,
            trc: timing.trc,
            t_delay: (t_cbf - nbl * timing.trc) / (flip_th / 2 - nbl),
        }
    }

    /// Rescales `NBL` by `1/div` for short simulation slices.
    ///
    /// BlockHammer's blacklist threshold is calibrated against per-row ACT
    /// counts accumulated over a full 32 ms window (the BlockHammer paper's
    /// benign rows reach ~700 ACTs; this paper's Section VI-A reports the
    /// same). A short simulated slice only sees one sweep burst per row
    /// (≈ the row's 128 cache lines), so runs shorter than tREFW must
    /// divide `NBL` by the ratio of the two (≈ 6) to reproduce the paper's
    /// benign-misidentification regime. The throttle delay keeps its
    /// paper-scale value. Returns the adjusted configuration.
    ///
    /// # Panics
    ///
    /// Panics if `div` is zero.
    pub fn with_nbl_scaled(mut self, div: u64) -> Self {
        assert!(div > 0, "div must be non-zero");
        self.nbl = (self.nbl / div).max(4);
        self
    }

    /// The throttle delay applied to blacklisted rows:
    /// `tDelay = (tCBF − NBL×tRC)/(FlipTH/2 − NBL)` at paper scale.
    pub fn t_delay(&self) -> TimePs {
        self.t_delay
    }

    /// Per-bank table size in KiB: two CBFs of `cbf_counters` counters
    /// wide enough to count to ~2×NBL, matching the Table IV scale.
    pub fn table_kib(&self) -> f64 {
        let counter_bits = 64 - (2 * self.nbl).leading_zeros();
        2.0 * self.cbf_counters as f64 * counter_bits as f64 / 8.0 / 1024.0
    }
}

/// Per-bank BlockHammer state.
#[derive(Debug)]
struct BankState {
    /// The two time-interleaved CBFs.
    cbfs: [CountingBloomFilter; 2],
    /// Last activation time of rows currently considered hot.
    last_act: FastHashMap<RowId, TimePs>,
}

/// The BlockHammer mitigation (MC-side, throttling remedy).
///
/// # Example
///
/// ```
/// use mithril_baselines::{BlockHammer, BlockHammerConfig};
/// use mithril_dram::Ddr5Timing;
/// use mithril_memctrl::McMitigation;
///
/// let t = Ddr5Timing::ddr5_4800();
/// let cfg = BlockHammerConfig::for_flip_threshold(1_500, &t);
/// let mut bh = BlockHammer::new(cfg, 1);
/// // Hammer one row past NBL: its next ACT gets delayed.
/// let mut now = 0;
/// for _ in 0..cfg.nbl + 1 {
///     bh.on_activate(0, 42, 0, now);
///     now += t.trc;
/// }
/// assert!(bh.activate_allowed_at(0, 42, 0) > now);
/// ```
#[derive(Debug)]
pub struct BlockHammer {
    config: BlockHammerConfig,
    banks: Vec<BankState>,
    /// Epoch half-period boundary bookkeeping: which CBF clears next.
    next_swap: TimePs,
    swap_parity: usize,
}

impl BlockHammer {
    /// Creates BlockHammer state for `banks` banks.
    ///
    /// # Panics
    ///
    /// Panics if `cbf_counters` is not a power of two.
    pub fn new(config: BlockHammerConfig, banks: usize) -> Self {
        assert!(
            config.cbf_counters.is_power_of_two(),
            "CBF size must be a power of two"
        );
        let bits = config.cbf_counters.trailing_zeros();
        let mk = |seed: u64| CountingBloomFilter::new(bits, config.cbf_hashes, seed);
        Self {
            banks: (0..banks)
                .map(|b| BankState {
                    cbfs: [mk(2 * b as u64), mk(2 * b as u64 + 1)],
                    last_act: FastHashMap::default(),
                })
                .collect(),
            next_swap: config.t_cbf / 2,
            swap_parity: 0,
            config,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &BlockHammerConfig {
        &self.config
    }

    /// The rolling-window estimate for a row (max over the two CBFs).
    pub fn estimate(&self, bank: BankId, row: RowId) -> u64 {
        let key = Self::key(bank, row);
        self.banks[bank]
            .cbfs
            .iter()
            .map(|c| c.estimate(key))
            .max()
            .unwrap_or(0)
    }

    /// True if `row` on `bank` is currently blacklisted.
    pub fn is_blacklisted(&self, bank: BankId, row: RowId) -> bool {
        self.estimate(bank, row) >= self.config.nbl
    }

    fn key(bank: BankId, row: RowId) -> u64 {
        (bank as u64) << 32 | row
    }

    /// Rows an attacker activates so that *every* CBF bucket of `victim`
    /// (on `bank`) gets inflated — the "profiled rows that share the CBF
    /// entry with the benign threads" of the paper's performance-
    /// adversarial pattern (Section VI-A).
    ///
    /// BlockHammer's hash functions are structural (seeded by the bank
    /// index), so an attacker can replicate them offline; this function is
    /// that replication: a greedy cover of the victim's buckets in both
    /// time-interleaved CBFs. Hammering each returned row past `NBL`
    /// blacklists `victim` without the attacker ever touching it.
    pub fn collision_cover_rows(
        config: &BlockHammerConfig,
        bank: BankId,
        victim: RowId,
        rows_per_bank: u64,
    ) -> Vec<RowId> {
        let bits = config.cbf_counters.trailing_zeros();
        let cbfs = [
            CountingBloomFilter::new(bits, config.cbf_hashes, 2 * bank as u64),
            CountingBloomFilter::new(bits, config.cbf_hashes, 2 * bank as u64 + 1),
        ];
        let vkey = Self::key(bank, victim);
        let mut need: std::collections::HashSet<(usize, usize)> = (0..2)
            .flat_map(|f| cbfs[f].buckets(vkey).into_iter().map(move |b| (f, b)))
            .collect();
        let mut cover = Vec::new();
        for r in 0..rows_per_bank {
            if need.is_empty() {
                break;
            }
            if r == victim {
                continue;
            }
            let key = Self::key(bank, r);
            let mut hit = false;
            for (f, cbf) in cbfs.iter().enumerate() {
                for b in cbf.buckets(key) {
                    hit |= need.remove(&(f, b));
                }
            }
            if hit {
                cover.push(r);
            }
        }
        cover
    }

    fn maybe_swap(&mut self, now: TimePs) {
        while now >= self.next_swap {
            // Clear the older CBF: counts older than tCBF are forgotten.
            let idx = self.swap_parity;
            for bank in &mut self.banks {
                bank.cbfs[idx].clear();
                bank.last_act.clear();
            }
            self.swap_parity ^= 1;
            self.next_swap += self.config.t_cbf / 2;
        }
    }
}

impl McMitigation for BlockHammer {
    fn on_activate(&mut self, bank: BankId, row: RowId, _thread: usize, now: TimePs) -> McAction {
        self.maybe_swap(now);
        let key = Self::key(bank, row);
        let state = &mut self.banks[bank];
        for cbf in &mut state.cbfs {
            cbf.record(key);
        }
        let est = state
            .cbfs
            .iter()
            .map(|c| c.estimate(key))
            .max()
            .unwrap_or(0);
        if est >= self.config.nbl {
            state.last_act.insert(row, now);
        }
        McAction::None
    }

    fn activate_allowed_at(&self, bank: BankId, row: RowId, _thread: usize) -> TimePs {
        if !self.is_blacklisted(bank, row) {
            return 0;
        }
        match self.banks[bank].last_act.get(&row) {
            Some(&last) => last + self.config.t_delay(),
            None => 0,
        }
    }

    fn release_generation(&self) -> u64 {
        // Moves exactly at a swap, which clears every bank's blacklist.
        self.next_swap
    }

    fn name(&self) -> &'static str {
        "blockhammer"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing() -> Ddr5Timing {
        Ddr5Timing::ddr5_4800()
    }

    fn small_config() -> BlockHammerConfig {
        let t = timing();
        BlockHammerConfig {
            cbf_counters: 256,
            cbf_hashes: 4,
            nbl: 100,
            flip_th: 1_000,
            t_cbf: t.trefw,
            trc: t.trc,
            t_delay: (t.trefw - 100 * t.trc) / 400,
        }
    }

    #[test]
    fn delay_equation_uses_half_flipth_cap() {
        let cfg = small_config();
        // tDelay = (tCBF − NBL·tRC)/(FlipTH/2 − NBL)
        let expect = (cfg.t_cbf - 100 * cfg.trc) / (500 - 100);
        assert_eq!(cfg.t_delay(), expect);
    }

    #[test]
    fn delay_caps_aggressor_at_half_flipth_per_window() {
        // With tDelay, a blacklisted row gains at most (FlipTH/2 − NBL)
        // more ACTs within the remaining window, so a double-sided pair
        // cannot push a shared victim past FlipTH.
        let cfg = small_config();
        let acts_possible = cfg.nbl + (cfg.t_cbf - cfg.nbl * cfg.trc) / cfg.t_delay();
        assert!(
            acts_possible <= cfg.flip_th / 2 + 1,
            "acts possible = {acts_possible}"
        );
    }

    #[test]
    fn row_blacklisted_after_nbl_acts() {
        let mut bh = BlockHammer::new(small_config(), 1);
        let mut now = 0;
        for _ in 0..99 {
            bh.on_activate(0, 5, 0, now);
            now += 50_000;
        }
        assert!(!bh.is_blacklisted(0, 5));
        bh.on_activate(0, 5, 0, now);
        assert!(bh.is_blacklisted(0, 5));
    }

    #[test]
    fn blacklisted_row_gets_delay() {
        let mut bh = BlockHammer::new(small_config(), 1);
        let mut now = 0;
        for _ in 0..101 {
            bh.on_activate(0, 5, 0, now);
            now += 50_000;
        }
        let release = bh.activate_allowed_at(0, 5, 0);
        assert!(release > now);
        // Non-blacklisted rows are unaffected.
        assert_eq!(bh.activate_allowed_at(0, 6, 0), 0);
    }

    #[test]
    fn cbf_aliasing_throttles_innocent_rows() {
        // A benign row sharing all CBF buckets with the attacker's row
        // inherits the blacklist — the adversarial pattern's foundation.
        let bh = BlockHammer::new(small_config(), 1);
        let attacker_key = BlockHammer::key(0, 1000);
        let reference = bh.banks[0].cbfs[0].buckets(attacker_key);
        let mut alias = None;
        for cand in 0..2_000_000u64 {
            if cand == 1000 {
                continue;
            }
            let k = BlockHammer::key(0, cand);
            if bh.banks[0].cbfs[0].buckets(k) == reference
                && bh.banks[0].cbfs[1].buckets(k) == bh.banks[0].cbfs[1].buckets(attacker_key)
            {
                alias = Some(cand);
                break;
            }
        }
        if let Some(benign) = alias {
            let mut bh = bh;
            let mut now = 0;
            for _ in 0..101 {
                bh.on_activate(0, 1000, 0, now);
                now += 50_000;
            }
            assert!(bh.is_blacklisted(0, benign), "alias must inherit blacklist");
        }
        // (If no alias exists in the scanned range the property is vacuous
        // for this seed; the workloads crate constructs collisions
        // directly from `buckets()`.)
    }

    #[test]
    fn epoch_swap_forgets_old_counts() {
        let cfg = small_config();
        let mut bh = BlockHammer::new(cfg, 1);
        let mut now = 0;
        for _ in 0..101 {
            bh.on_activate(0, 5, 0, now);
            now += 1_000;
        }
        assert!(bh.is_blacklisted(0, 5));
        let generation = bh.release_generation();
        // After both half-epochs pass, the counts are gone, and the
        // release generation moved with the swaps that cleared them.
        let later = cfg.t_cbf + cfg.t_cbf / 2 + 1;
        bh.on_activate(0, 99, 0, later);
        assert!(!bh.is_blacklisted(0, 5));
        assert_eq!(bh.activate_allowed_at(0, 5, 0), 0);
        assert_ne!(bh.release_generation(), generation);
    }

    #[test]
    fn collision_cover_blacklists_untouched_victim() {
        let cfg = small_config();
        let victim = 12_345u64;
        let cover = BlockHammer::collision_cover_rows(&cfg, 0, victim, 65_536);
        assert!(!cover.is_empty() && cover.len() <= 8, "cover = {cover:?}");
        assert!(!cover.contains(&victim));
        let mut bh = BlockHammer::new(cfg, 1);
        // Hammer each cover row past NBL; the victim is never activated.
        for &r in &cover {
            for i in 0..cfg.nbl + 1 {
                bh.on_activate(0, r, 0, i * 50_000);
            }
        }
        assert!(
            bh.is_blacklisted(0, victim),
            "victim must inherit the blacklist"
        );
    }

    #[test]
    fn nbl_scaling_keeps_paper_delay() {
        let t = timing();
        let cfg = BlockHammerConfig::for_flip_threshold(1_500, &t);
        let scaled = cfg.with_nbl_scaled(6);
        assert_eq!(scaled.nbl, cfg.nbl / 6);
        assert_eq!(
            scaled.t_delay(),
            cfg.t_delay(),
            "delay must stay paper-scale"
        );
    }

    #[test]
    fn paper_configs_resolve() {
        let t = timing();
        for flip in crate::FLIP_TH_SWEEP {
            let cfg = BlockHammerConfig::for_flip_threshold(flip, &t);
            assert!(cfg.nbl < flip, "NBL must stay below FlipTH/2-ish");
            assert!(cfg.t_delay() > 0);
        }
        // Table IV scale: 3.75 KB at 50K, 20 KB at 1.5K.
        let k50 = BlockHammerConfig::for_flip_threshold(50_000, &t).table_kib();
        let k1_5 = BlockHammerConfig::for_flip_threshold(1_500, &t).table_kib();
        assert!((2.0..6.0).contains(&k50), "k50 = {k50}");
        assert!((12.0..30.0).contains(&k1_5), "k1_5 = {k1_5}");
    }

    #[test]
    #[should_panic(expected = "no BlockHammer configuration")]
    fn unknown_flipth_panics() {
        let _ = BlockHammerConfig::for_flip_threshold(7_777, &timing());
    }
}
