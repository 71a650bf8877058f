//! Differential property tests: the event-driven scheduler core must be
//! *decision-identical* to the retained naive rescan core — identical
//! command streams (kind, bank, row, issue time), identical controller and
//! device statistics, identical completions, and identical observability
//! event streams (after filtering the scheduler-internal kinds
//! `lane_invalidate`/`bliss_clear`, whose cadence is an implementation
//! detail of each core) — on random and adversarial workloads, across
//! geometries and mitigation styles.

use std::collections::HashMap;

use mithril_dram::{Ddr5Timing, DramDevice, Geometry, NoMitigation, RowId, TimePs, PS_PER_US};
use mithril_memctrl::{
    CoreStats, MappedAddr, McAction, McConfig, McMitigation, MemRequest, MemoryController,
    NoMcMitigation, QosConfig, QosPolicy, RfmMode, SchedulerKind,
};
use mithril_obs::{Event, RingSink};
use proptest::prelude::*;

type Req = (usize, u64, u64, bool, usize, u64);

/// Deterministic ARR-issuing mitigation: refresh neighbours of every k-th
/// activation (a de-randomized PARA).
struct ArrEveryK {
    k: u64,
    seen: u64,
}

impl McMitigation for ArrEveryK {
    fn on_activate(&mut self, bank: usize, row: RowId, _thread: usize, _now: TimePs) -> McAction {
        self.seen += 1;
        if self.seen.is_multiple_of(self.k) {
            McAction::Arr {
                bank,
                victims: vec![row.saturating_sub(1), row + 1],
            }
        } else {
            McAction::None
        }
    }
    fn name(&self) -> &'static str {
        "arr-every-k"
    }
}

/// The bank-dependent throttle delay of the mocks below.
fn bank_delay(bank: usize) -> TimePs {
    (bank as TimePs % 3 + 1) * 50_000
}

/// Deterministic throttling mitigation: even threads' ACTs release a
/// bank-dependent delay after the bank's previous ACT. Releases change
/// only on the bank's own ACTs; the event core caches them in the lane
/// and recomputes once the clock passes a queued release.
#[derive(Default)]
struct DelayEvenThreads {
    last_act: HashMap<usize, TimePs>,
}

impl McMitigation for DelayEvenThreads {
    fn on_activate(&mut self, bank: usize, _row: RowId, _thread: usize, now: TimePs) -> McAction {
        self.last_act.insert(bank, now);
        McAction::None
    }
    fn activate_allowed_at(&self, bank: usize, _row: RowId, thread: usize) -> TimePs {
        if thread.is_multiple_of(2) {
            self.last_act.get(&bank).copied().unwrap_or(0) + bank_delay(bank)
        } else {
            0
        }
    }
    fn name(&self) -> &'static str {
        "delay-even-threads"
    }
}

/// Deterministic throttling mitigation whose releases change on every
/// bank at once: every `k`-th ACT opens an epoch that throttles the
/// threads of one parity (alternating) on every bank, releasing them a
/// bank-dependent delay after the epoch start. The epoch count is the
/// release generation, as BlockHammer's CBF swap count is.
struct EpochThrottle {
    k: u64,
    acts: u64,
    epoch: u64,
    epoch_start: TimePs,
}

impl McMitigation for EpochThrottle {
    fn on_activate(&mut self, _bank: usize, _row: RowId, _thread: usize, now: TimePs) -> McAction {
        self.acts += 1;
        if self.acts.is_multiple_of(self.k) {
            self.epoch += 1;
            self.epoch_start = now;
        }
        McAction::None
    }
    fn activate_allowed_at(&self, bank: usize, _row: RowId, thread: usize) -> TimePs {
        if (thread as u64 + self.epoch).is_multiple_of(2) {
            self.epoch_start + bank_delay(bank)
        } else {
            0
        }
    }
    fn release_generation(&self) -> u64 {
        self.epoch
    }
    fn name(&self) -> &'static str {
        "epoch-throttle"
    }
}

fn build(
    geometry: Geometry,
    cfg: McConfig,
    mitigation: Box<dyn McMitigation>,
    kind: SchedulerKind,
) -> MemoryController<RingSink> {
    let device = DramDevice::new(geometry, Ddr5Timing::ddr5_4800(), 100_000, 1, |_| {
        Box::new(NoMitigation)
    });
    // Large enough that these bounded workloads never wrap the ring, so
    // the drained streams are complete.
    let mut mc = MemoryController::with_obs(device, cfg, mitigation, kind, RingSink::new(1 << 18));
    mc.record_commands(true);
    mc
}

/// The cross-core-comparable projection of an event stream: everything
/// except the scheduler-internal kinds (candidate-lane invalidation
/// cadence and BLISS clear notifications differ between cores by design).
fn external_events(mc: &mut MemoryController<RingSink>) -> Vec<(u64, Event)> {
    let sink = mc.obs_mut();
    assert_eq!(sink.dropped(), 0, "ring wrapped; grow the test capacity");
    sink.take_events()
        .into_iter()
        .filter(|(_, ev)| !matches!(ev, Event::LaneInvalidate { .. } | Event::BlissClear))
        .collect()
}

/// Drives two controllers through the same enqueue/advance interleaving
/// and asserts every observable output matches: completions, stats,
/// device state, command log, observability events, and QoS outcomes.
/// Returns the first controller so callers can assert the run was not
/// vacuous.
fn assert_controllers_agree(
    geometry: Geometry,
    mut event: MemoryController<RingSink>,
    mut naive: MemoryController<RingSink>,
    reqs: &[Req],
) -> MemoryController<RingSink> {
    let nbanks = geometry.banks_total();
    let mut done_event = Vec::new();
    let mut done_naive = Vec::new();
    let mut now = 0u64;
    for (i, &(bank, row, col, is_write, thread, gap)) in reqs.iter().enumerate() {
        now += gap * PS_PER_US / 8;
        let addr = MappedAddr {
            channel: mithril_dram::ChannelId(0),
            bank: bank % nbanks,
            row,
            col,
        };
        let req = if is_write {
            MemRequest::write(i as u64, addr, thread, now)
        } else {
            MemRequest::read(i as u64, addr, thread, now)
        };
        event.enqueue(req);
        naive.enqueue(req);
        // Interleave advances mid-stream (the simulator's intra-epoch
        // relaxation pattern) so candidates go stale between fences.
        if i % 16 == 15 {
            event.advance_until_into(now, &mut done_event);
            naive.advance_until_into(now, &mut done_naive);
        }
    }
    let horizon = now + 4_000 * PS_PER_US;
    event.advance_until_into(horizon, &mut done_event);
    naive.advance_until_into(horizon, &mut done_naive);

    assert_eq!(event.pending(), 0, "event core lost requests");
    assert_eq!(naive.pending(), 0, "naive core lost requests");
    assert_eq!(done_event, done_naive, "completion streams diverge");
    assert_eq!(event.stats(), naive.stats(), "controller stats diverge");
    assert_eq!(
        event.device().counters(),
        naive.device().counters(),
        "device counters diverge"
    );
    assert_eq!(
        event.device().max_disturbance(),
        naive.device().max_disturbance(),
        "oracle disturbance diverges"
    );
    let log_event = event.take_command_log();
    let log_naive = naive.take_command_log();
    assert_eq!(log_event.len(), log_naive.len(), "command counts diverge");
    for (i, (e, n)) in log_event.iter().zip(&log_naive).enumerate() {
        assert_eq!(e, n, "command {i} diverges");
    }
    let ev_event = external_events(&mut event);
    let ev_naive = external_events(&mut naive);
    assert_eq!(
        ev_event.len(),
        ev_naive.len(),
        "observability event counts diverge"
    );
    for (i, (e, n)) in ev_event.iter().zip(&ev_naive).enumerate() {
        assert_eq!(e, n, "observability event {i} diverges");
    }
    assert_eq!(event.qos_stats(), naive.qos_stats(), "QoS outcomes diverge");
    event
}

/// Drives both scheduler cores (optionally with a QoS policy applied)
/// through the same traffic, asserts decision identity, and returns the
/// event-core controller.
fn assert_cores_agree_qos(
    geometry: Geometry,
    cfg: McConfig,
    mk_mitigation: impl Fn() -> Box<dyn McMitigation>,
    qos: QosPolicy,
    reqs: &[Req],
) -> MemoryController<RingSink> {
    let mut event = build(geometry, cfg, mk_mitigation(), SchedulerKind::EventQueue);
    let mut naive = build(geometry, cfg, mk_mitigation(), SchedulerKind::NaiveRescan);
    event.set_qos(qos);
    naive.set_qos(qos);
    assert_controllers_agree(geometry, event, naive, reqs)
}

/// [`assert_cores_agree_qos`] without QoS — the pre-existing contract.
fn assert_cores_agree(
    geometry: Geometry,
    cfg: McConfig,
    mk_mitigation: impl Fn() -> Box<dyn McMitigation>,
    reqs: &[Req],
) -> MemoryController<RingSink> {
    let event = build(geometry, cfg, mk_mitigation(), SchedulerKind::EventQueue);
    let naive = build(geometry, cfg, mk_mitigation(), SchedulerKind::NaiveRescan);
    assert_controllers_agree(geometry, event, naive, reqs)
}

/// An aggressive QoS tuning for the differential tests: short windows,
/// tiny token budget, low election bar — maximizes rotations, suspect
/// churn and window-boundary deferrals per request batch.
fn aggressive_qos() -> QosPolicy {
    aggressive_qos_with(2)
}

/// [`aggressive_qos`] with a chosen per-window token budget.
fn aggressive_qos_with(tokens_per_window: u64) -> QosPolicy {
    QosPolicy::Throttle(QosConfig {
        window_ps: 300_000,
        share_pct: 30,
        min_score: 8,
        tokens_per_window,
    })
}

/// Standard RFM at a low threshold (QoS pressure) with BLISS off, so
/// no blacklist change marks every lane dirty behind the tests' back.
fn unblissed_rfm() -> McConfig {
    McConfig {
        rfm_mode: RfmMode::Standard,
        rfm_th: 4,
        bliss: false,
    }
}

/// 3 ranks x 40 banks: 120 banks over two bitset words, with rank 1
/// (banks 40..80) crossing the word boundary at bank 64.
fn straddling_geometry() -> Geometry {
    Geometry {
        ranks: 3,
        banks_per_rank: 40,
        ..Geometry::default()
    }
}

/// Arbitrary request batches: (bank, row, col, is_write, thread, gap).
fn batches(max_len: usize) -> impl Strategy<Value = Vec<Req>> {
    batches_over(64, max_len)
}

/// [`batches`] over banks `0..banks`.
fn batches_over(banks: usize, max_len: usize) -> impl Strategy<Value = Vec<Req>> {
    prop::collection::vec(
        (
            0usize..banks,
            0u64..256,
            0u64..64,
            any::<bool>(),
            0usize..8,
            0u64..6,
        ),
        1..max_len,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Default geometry (1 rank x 32 banks), standard RFM, BLISS on.
    #[test]
    fn random_traffic_matches(reqs in batches(160)) {
        let cfg = McConfig {
            rfm_mode: RfmMode::Standard,
            rfm_th: 8,
            ..Default::default()
        };
        assert_cores_agree(
            Geometry::default(),
            cfg,
            || Box::new(NoMcMitigation),
            &reqs,
        );
    }

    /// Two ranks (staggered REF, per-rank tRRD/tFAW), Mithril+ MRR
    /// elision, BLISS off (pure FR-FCFS).
    #[test]
    fn two_rank_mrr_elision_matches(reqs in batches(120)) {
        let geometry = Geometry {
            ranks: 2,
            ..Geometry::default()
        };
        let cfg = McConfig {
            rfm_mode: RfmMode::MrrElision,
            rfm_th: 6,
            bliss: false,
        };
        assert_cores_agree(geometry, cfg, || Box::new(NoMcMitigation), &reqs);
    }

    /// Three ranks of 40 banks: rank 1's active-bit segment straddles the
    /// two `u64` words of the bitsets, and flat bank indices exceed 64 in
    /// the packed selection keys. Mithril+ MRR elision, BLISS off.
    #[test]
    fn word_straddling_ranks_mrr_elision_matches(reqs in batches_over(120, 160)) {
        let cfg = McConfig {
            rfm_mode: RfmMode::MrrElision,
            rfm_th: 6,
            bliss: false,
        };
        assert_cores_agree(straddling_geometry(), cfg, || Box::new(NoMcMitigation), &reqs);
    }

    /// The word-straddling geometry under QoS token-bucket throttling.
    #[test]
    fn word_straddling_ranks_qos_matches(reqs in batches_over(120, 160), tokens in 0u64..3) {
        assert_cores_agree_qos(
            straddling_geometry(),
            unblissed_rfm(),
            || Box::new(NoMcMitigation),
            aggressive_qos_with(tokens),
            &reqs,
        );
    }

    /// MC-side ARR mitigation injecting maintenance mid-stream.
    #[test]
    fn arr_mitigation_matches(reqs in batches(120), k in 2u64..6) {
        assert_cores_agree(
            Geometry::default(),
            McConfig::default(),
            || Box::new(ArrEveryK { k, seen: 0 }),
            &reqs,
        );
    }

    /// Throttling mitigation with bank-local releases: the cached
    /// candidates' `stale_at` recomputes must match the naive core.
    #[test]
    fn throttling_mitigation_matches(reqs in batches(100)) {
        assert_cores_agree(
            Geometry::default(),
            McConfig::default(),
            || Box::<DelayEvenThreads>::default(),
            &reqs,
        );
    }

    /// Throttling mitigation whose releases change on every bank at
    /// once, reported through the release generation (BLISS on and off).
    #[test]
    fn cross_bank_release_changes_match(reqs in batches(100), k in 2u64..8, bliss in any::<bool>()) {
        let cfg = if bliss { McConfig::default() } else { unblissed_rfm() };
        assert_cores_agree(
            Geometry::default(),
            cfg,
            || Box::new(EpochThrottle { k, acts: 0, epoch: 0, epoch_start: 0 }),
            &reqs,
        );
    }

    /// QoS token-bucket throttling on, with RFM pressure feeding the
    /// suspect scorer: both cores must elect the same suspects, defer
    /// the same ACTs to the same window boundaries, and agree on every
    /// downstream decision. With BLISS off no blacklist change re-dirties
    /// every lane, so only the QoS change signals (rotation; a suspect's
    /// last token; with no tokens at all, a rotation makes a newly
    /// elected suspect dry at once) keep cached releases current.
    #[test]
    fn qos_throttling_matches(reqs in batches(120), bliss in any::<bool>(), tokens in 0u64..3) {
        let cfg = McConfig {
            bliss,
            ..unblissed_rfm()
        };
        assert_cores_agree_qos(
            Geometry::default(),
            cfg,
            || Box::new(NoMcMitigation),
            aggressive_qos_with(tokens),
            &reqs,
        );
    }

    /// QoS layered on top of an ARR mitigation: both pressure sources
    /// (RFM arming and MC-mitigation triggers) feed the scorer.
    #[test]
    fn qos_over_arr_mitigation_matches(reqs in batches(100), k in 2u64..6) {
        assert_cores_agree_qos(
            Geometry::default(),
            McConfig::default(),
            || Box::new(ArrEveryK { k, seen: 0 }),
            aggressive_qos(),
            &reqs,
        );
    }

    /// `QosPolicy::Off` must be entry-by-entry identical to a controller
    /// that never saw the QoS subsystem at all — the command-log half of
    /// the `BENCH_sweep.json` byte-identity contract.
    #[test]
    fn qos_off_is_identical_to_no_qos(reqs in batches(120)) {
        let cfg = McConfig {
            rfm_mode: RfmMode::Standard,
            rfm_th: 8,
            ..Default::default()
        };
        let untouched = build(
            Geometry::default(),
            cfg,
            Box::new(NoMcMitigation),
            SchedulerKind::EventQueue,
        );
        let mut off = build(
            Geometry::default(),
            cfg,
            Box::new(NoMcMitigation),
            SchedulerKind::EventQueue,
        );
        off.set_qos(QosPolicy::Off);
        assert_controllers_agree(Geometry::default(), untouched, off, &reqs);
    }
}

/// The adversarial hammer under QoS throttling: the differential holds
/// on the Table III channel while the hammer is actually being deferred
/// (the stats assert throttling really happened, so this is not a
/// vacuous agreement).
#[test]
fn adversarial_hammer_matches_under_qos() {
    let geometry = Geometry::table_iii_system().channel_view();
    let mut reqs = Vec::new();
    for i in 0..400u64 {
        let row = if i.is_multiple_of(2) { 100 } else { 102 };
        reqs.push((0usize, row, i % 4, false, 0usize, 0u64));
        if i % 5 == 0 {
            reqs.push((0usize, 101, 0, false, 1usize, 0u64));
        }
    }
    let cfg = McConfig {
        rfm_mode: RfmMode::Standard,
        rfm_th: 8,
        ..Default::default()
    };
    let mut event = build(
        geometry,
        cfg,
        Box::new(NoMcMitigation),
        SchedulerKind::EventQueue,
    );
    let mut naive = build(
        geometry,
        cfg,
        Box::new(NoMcMitigation),
        SchedulerKind::NaiveRescan,
    );
    event.set_qos(aggressive_qos());
    naive.set_qos(aggressive_qos());
    let qos = assert_controllers_agree(geometry, event, naive, &reqs)
        .qos_stats()
        .expect("QoS-on run reports stats");
    assert!(qos.windows > 0, "windows must rotate over this horizon");
    assert!(
        qos.throttled_acts > 0,
        "the hammer must actually be deferred (vacuous agreement otherwise)"
    );
}

/// A hammer spread over eight banks under QoS with BLISS off: a suspect
/// that spends its last token on one bank must defer its queued ACTs on
/// every other bank (and, with no tokens at all, from the rotation that
/// elects it). Non-vacuous: the hammer really is deferred.
#[test]
fn multi_bank_hammer_matches_under_qos_without_bliss() {
    let geometry = Geometry::default();
    let mut reqs = Vec::new();
    for i in 0..480u64 {
        let bank = (i % 8) as usize;
        reqs.push((bank, 100 + 2 * (i % 2), 0, false, 0usize, 0u64));
        if i % 3 == 0 {
            reqs.push((
                bank,
                300 + i % 5,
                0,
                false,
                1 + (i % 2) as usize,
                u64::from(i % 24 == 0),
            ));
        }
    }
    for tokens in [0, 2] {
        let qos = assert_cores_agree_qos(
            geometry,
            unblissed_rfm(),
            || Box::new(NoMcMitigation),
            aggressive_qos_with(tokens),
            &reqs,
        )
        .qos_stats()
        .expect("QoS-on run reports stats");
        assert!(
            qos.throttled_acts > 0,
            "the hammer must be deferred (tokens {tokens})"
        );
    }
}

/// Cross-bank release changes on a busy multi-thread, multi-bank stream:
/// the differential holds while epochs really roll over and really
/// defer ACTs (so the agreement is not vacuous).
#[test]
fn epoch_throttle_matches_with_rollovers() {
    let geometry = Geometry::default();
    // Bursts of 50 over 7 banks and 4 threads keep many lanes queued
    // when an epoch rolls over.
    let reqs: Vec<Req> = (0..600u64)
        .map(|i| {
            let gap = u64::from(i % 50 == 49);
            ((i % 7) as usize, i % 50, 0, false, (i % 4) as usize, gap)
        })
        .collect();
    let mk = || -> Box<dyn McMitigation> {
        Box::new(EpochThrottle {
            k: 16,
            acts: 0,
            epoch: 0,
            epoch_start: 0,
        })
    };
    let mc = assert_cores_agree(geometry, unblissed_rfm(), mk, &reqs);
    assert!(
        mc.mitigation().release_generation() >= 2,
        "epochs must roll over"
    );
    assert!(
        CoreStats::total(&mc.stats().per_core).throttled_acts > 0,
        "epochs must defer ACTs"
    );
}

/// Adversarial double-sided hammer plus a conflicting victim stream on the
/// per-channel view of the paper's 2-channel Table III system: long
/// same-bank runs maximize row-hit/precharge churn and RFM pressure.
#[test]
fn adversarial_hammer_matches_table_iii_channel() {
    let geometry = Geometry::table_iii_system().channel_view();
    let mut reqs = Vec::new();
    for i in 0..400u64 {
        let row = if i.is_multiple_of(2) { 100 } else { 102 }; // double-sided pair
        reqs.push((0usize, row, i % 4, false, 0usize, 0u64));
        if i % 5 == 0 {
            // Victim-row reads on the same bank, different row: forces
            // precharge/activate conflicts against the hammer stream.
            reqs.push((0usize, 101, 0, false, 1usize, 0u64));
        }
        if i % 7 == 0 {
            // Background traffic on a sibling bank of the same rank
            // (tRRD/tFAW interaction with the rank-floor clamp).
            reqs.push((1usize, i % 64, 0, i % 3 == 0, 2usize, 1u64));
        }
    }
    let cfg = McConfig {
        rfm_mode: RfmMode::Standard,
        rfm_th: 16,
        ..Default::default()
    };
    assert_cores_agree(geometry, cfg, || Box::new(NoMcMitigation), &reqs);
}

/// Empty-queue idle advance: both cores issue exactly the same refresh
/// schedule with no demand traffic.
#[test]
fn idle_refresh_schedule_matches() {
    let geometry = Geometry {
        ranks: 2,
        ..Geometry::default()
    };
    assert_cores_agree(
        geometry,
        McConfig::default(),
        || Box::new(NoMcMitigation),
        &[],
    );
}
