//! The memory controller proper: queues, scheduling, refresh and RFM issue.
//!
//! The controller advances an event-driven command loop: at each step it
//! finds the earliest legal action across banks (refresh, RFM, ARR, a
//! row-hit column command, a page-policy precharge, or an activation) and
//! executes the globally earliest one. Priorities at equal time follow
//! maintenance-first order (REF > RFM > ARR > column > PRE > ACT), which
//! guarantees forward progress and models refresh/RFM head-of-line blocking
//! — the mechanism behind Mithril's performance overhead (paper Fig. 9/10).
//!
//! Two scheduler cores implement the same decision function
//! ([`SchedulerKind`]):
//!
//! * **Event queue** (default): per-bank candidate events cached in flat
//!   per-bank lanes, recomputed only for banks whose state changed since
//!   the last command (dirty-bitset invalidation). Global constraints that
//!   slide with time — the controller clock, the shared data bus, rank
//!   tRRD/tFAW — are applied as clamps at selection time so cached
//!   candidates stay valid without recomputation. Throttle releases are
//!   absolute times cached with each ACT candidate; a lane is recomputed
//!   when the clock reaches its next queued release (`stale_at`).
//! * **Naive rescan**: the original O(banks) full enumeration per command,
//!   kept as the reference implementation for differential testing
//!   (`tests/event_core_diff.rs`).
//!
//! Both cores produce byte-identical command streams; see ARCHITECTURE.md
//! ("Event-driven controller core") for the decision-identity argument.

use std::collections::VecDeque;

use mithril_dram::{BankId, DramDevice, FaultStats, RankId, RowId, TimePs};
use mithril_obs::{
    Event, EventSink, LaneCause, LatencyHistogram, NullSink, PerCore, TrackerObservation,
};

use crate::bliss::Bliss;
use crate::mitigation::{McAction, McMitigation};
use crate::qos::{QosPolicy, QosState, QosStats};
use crate::request::MemRequest;

/// How the controller drives the RFM interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RfmMode {
    /// RFM disabled (pre-DDR5 behaviour, or MC-side-only schemes).
    Disabled,
    /// Standard RFM: issue to a bank whenever its RAA counter reaches
    /// RFMTH (paper Fig. 1(b)).
    Standard,
    /// Mithril+: poll the mode-register flag first (MRR) and elide the RFM
    /// when the DRAM-side engine reports nothing pending (Section V-B).
    MrrElision,
}

/// Which scheduling core drives the command loop. Both cores are
/// decision-identical; they differ only in how the next command is found.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerKind {
    /// Event-driven core: cached per-bank candidates with incremental
    /// dirty-bitset invalidation. O(changed banks) per command.
    #[default]
    EventQueue,
    /// Full per-command rescan of every bank — the original reference
    /// implementation, retained for differential testing.
    NaiveRescan,
}

/// Controller configuration.
#[derive(Debug, Clone, Copy)]
pub struct McConfig {
    /// RFM issue policy.
    pub rfm_mode: RfmMode,
    /// RAA threshold at which an RFM is due.
    pub rfm_th: u64,
    /// BLISS scheduling, or pure FR-FCFS when `false`.
    pub bliss: bool,
}

impl Default for McConfig {
    fn default() -> Self {
        Self {
            rfm_mode: RfmMode::Disabled,
            rfm_th: 64,
            bliss: true,
        }
    }
}

/// A serviced request, reported back to the cache hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The id the caller tagged the request with.
    pub request_id: u64,
    /// Originating thread.
    pub thread: usize,
    /// Time the data burst (read) or write commit finished.
    pub at: TimePs,
    /// Whether this was a writeback.
    pub is_write: bool,
}

/// One core's share of a controller's activity — the per-tenant
/// attribution the QoS roadmap item needs, and the controller's only
/// record of served requests and throttles (its totals are the fold
/// [`CoreStats::total`]). Every field is attributed to the *issuing* core
/// of the request that caused the command: latency to the request that
/// completed, RFM/mitigation triggers to the ACT whose activation crossed
/// the threshold (the "who is hammering" signal), not to the bank cadence
/// that later issued the command.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// ACTs issued for this core's requests.
    pub acts: u64,
    /// Column commands for this core's requests that reused an already
    /// open row (columns beyond the first one served by each activation).
    pub row_hits: u64,
    /// ACTs of this core delayed by a throttle (a mitigation's or the
    /// QoS token bucket's).
    pub throttled_acts: u64,
    /// RAA-threshold crossings caused by this core's ACTs (each arms one
    /// pending RFM on the bank).
    pub rfm_triggers: u64,
    /// Mitigation-engine reactions (queued ARRs) provoked by this core's
    /// ACTs.
    pub mitigation_triggers: u64,
    /// Read-latency histogram of this core's completed reads
    /// (completion − arrival, picoseconds); its `count()` is the number
    /// of reads served.
    pub read_latency: LatencyHistogram,
    /// Writeback-latency histogram of this core's committed writes
    /// (commit − arrival, picoseconds); its `count()` is the number of
    /// writes served.
    pub write_latency: LatencyHistogram,
}

impl CoreStats {
    /// Folds another controller's share of the same core into `self`
    /// (bucket-wise for the histograms, additive otherwise) — associative
    /// and commutative, so cross-channel roll-up order does not matter.
    pub fn merge(&mut self, other: &CoreStats) {
        self.acts += other.acts;
        self.row_hits += other.row_hits;
        self.throttled_acts += other.throttled_acts;
        self.rfm_triggers += other.rfm_triggers;
        self.mitigation_triggers += other.mitigation_triggers;
        self.read_latency.merge(&other.read_latency);
        self.write_latency.merge(&other.write_latency);
    }

    /// Every core's share folded into one: the totals of a controller,
    /// a channel or a run. Merging is exact, so the total histograms
    /// equal ones that recorded every request directly.
    pub fn total(per_core: &PerCore<CoreStats>) -> CoreStats {
        let mut total = CoreStats::default();
        for (_, core) in per_core.iter() {
            total.merge(core);
        }
        total
    }
}

/// Aggregate controller statistics: counts of what no single served
/// request records, plus the per-core records.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct McStats {
    /// Rank REF commands issued.
    pub refs: u64,
    /// RFMs elided after a clear MRR flag (Mithril+).
    pub rfm_elisions: u64,
    /// ARR commands issued on behalf of MC-side schemes.
    pub arrs: u64,
    /// Per-issuing-core record of this controller's served requests and
    /// throttled ACTs (the device's
    /// [`EnergyCounters`](mithril_dram::EnergyCounters) hold the command
    /// totals).
    pub per_core: PerCore<CoreStats>,
}

/// The DRAM command a [`CommandRecord`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommandKind {
    /// Rank auto-refresh.
    Ref,
    /// Precharge issued to clear the way for maintenance (REF/RFM/ARR).
    MaintPre,
    /// RFM issued to the bank.
    Rfm,
    /// RFM elided after a clear MRR poll (Mithril+).
    RfmElided,
    /// ARR on behalf of an MC-side mitigation (`row` = victim count).
    Arr,
    /// Column read.
    Read,
    /// Column write.
    Write,
    /// Page-policy precharge.
    Pre,
    /// Row activation.
    Act,
}

/// One issued DRAM command, captured when command recording is enabled
/// via [`MemoryController::record_commands`]. Used by the differential
/// tests to compare the two scheduler cores command-for-command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommandRecord {
    /// Issue time.
    pub at: TimePs,
    /// Command type.
    pub kind: CommandKind,
    /// Target flat bank (first bank of the rank for [`CommandKind::Ref`]).
    pub bank: BankId,
    /// Target row; victim count for ARR; 0 where not applicable.
    pub row: RowId,
}

/// Flat per-bank scheduling lane: request queue, page-policy and RFM state,
/// and the cached next command. The command's selection key (base time,
/// priority) lives in the controller's dense `cand_at` / `cand_prio`
/// arrays, which the selection scan reads instead of lanes.
#[derive(Debug, Clone, Default)]
struct BankLane {
    /// Smallest queued release above the ACT base the command was
    /// computed with (`TimePs::MAX` if none or not an ACT): the lane is
    /// recomputed once its ACT base reaches it.
    stale_at: TimePs,
    /// Cached next command; `None` (no serviceable work) keeps the bank
    /// out of the active set.
    cmd: Option<Cmd>,
    hits_served: u32,
    rfm_pending: bool,
    raa: u64,
    queue: VecDeque<MemRequest>,
    arr_queue: VecDeque<Vec<RowId>>,
}

/// A per-bank DRAM command: the event core's cached lane payload and the
/// bank half of every [`Action`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cmd {
    /// Precharge that clears the way for maintenance (REF/RFM/ARR).
    MaintPre,
    /// RFM, preceded under Mithril+ by the MRR poll that may elide it.
    Rfm,
    /// ARR of the bank's oldest queued MC-side mitigation request.
    Arr,
    /// Column command for the request at queue position `pos`.
    Column { pos: u32 },
    /// Minimalist-open page-policy precharge.
    Pre,
    /// Activation for the request at queue position `pos`.
    Act {
        pos: u32,
        throttled: bool,
        /// The throttle release came specifically from the QoS token
        /// bucket (a dry suspect deferred to the window boundary). Carried
        /// in the command because it cannot be recomputed at execute
        /// time: by then the window may have rotated and refilled tokens.
        qos_throttled: bool,
    },
}

impl Cmd {
    /// Tie-break rank among commands due at the same time: the one
    /// priority map of per-bank commands (REF sits below all of them).
    const fn priority(self) -> u8 {
        match self {
            Cmd::MaintPre => PRIO_MAINT_PRE,
            Cmd::Rfm => PRIO_RFM,
            Cmd::Arr => PRIO_ARR,
            Cmd::Column { .. } => PRIO_COLUMN,
            Cmd::Pre => PRIO_PRE,
            Cmd::Act { .. } => PRIO_ACT,
        }
    }
}

/// The command a scheduler core picked: a rank refresh or a per-bank
/// command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Action {
    Ref { rank: RankId },
    Bank { bank: BankId, cmd: Cmd },
}

impl Action {
    const fn priority(self) -> u8 {
        match self {
            Action::Ref { .. } => PRIO_REF,
            Action::Bank { cmd, .. } => cmd.priority(),
        }
    }
}

/// Minimalist-open page policy: row hits served per activation before
/// the row closes.
const MAX_ROW_HITS: u32 = 4;

const PRIO_REF: u8 = 0;
const PRIO_MAINT_PRE: u8 = 1;
const PRIO_RFM: u8 = 2;
const PRIO_ARR: u8 = 3;
const PRIO_COLUMN: u8 = 4;
const PRIO_PRE: u8 = 5;
const PRIO_ACT: u8 = 6;

/// One memory channel's controller, owning its [`DramDevice`].
///
/// Generic over an observability sink `S` (default: the disabled
/// [`NullSink`], under which every `if S::ENABLED` guard folds away and
/// the controller compiles to the un-instrumented hot path). Construct
/// with an enabled sink via [`with_obs`](MemoryController::with_obs).
///
/// See the crate-level example for typical use.
pub struct MemoryController<S: EventSink = NullSink> {
    device: DramDevice,
    config: McConfig,
    scheduler: SchedulerKind,
    mitigation: Box<dyn McMitigation>,
    /// The mitigation's release generation as of its last ACT; a change
    /// invalidates every lane's cached activation candidate.
    mit_generation: u64,
    /// Multi-tenant QoS layer (suspect scoring + token-bucket throttle);
    /// `None` under [`QosPolicy::Off`], leaving the controller
    /// entry-by-entry identical to a build without the subsystem.
    qos: Option<QosState>,
    bliss: Option<Bliss>,
    lanes: Vec<BankLane>,
    /// Cached candidate base time per flat bank — *before* the
    /// selection-time clamps (clock, data bus, rank tRRD/tFAW), which
    /// slide with time and are applied in `next_candidate_event`. An ACT
    /// includes its release.
    cand_at: Vec<TimePs>,
    /// Cached candidate priority (`PRIO_*`) per flat bank.
    cand_prio: Vec<u8>,
    /// Banks whose cached candidate is stale (bit per flat bank).
    dirty: Vec<u64>,
    /// Banks with a non-`Idle` cached candidate (bit per flat bank).
    active: Vec<u64>,
    /// Banks whose ACT candidate waits on a queued release, i.e. has a
    /// finite `stale_at` (bit per flat bank).
    held: Vec<u64>,
    next_ref: Vec<TimePs>,
    bus_free: TimePs,
    clock: TimePs,
    stats: McStats,
    completions: Vec<Completion>,
    log: Option<Vec<CommandRecord>>,
    /// The observability sink (zero-sized for [`NullSink`]).
    obs: S,
    /// Per-bank cumulative ACT counts (obs-only; empty when disabled).
    obs_acts_per_bank: Vec<u64>,
    /// Event-core candidate reuses: active lanes considered from cache
    /// during selection scans (obs-only).
    obs_cand_hits: u64,
    /// Event-core candidate recomputations (dirty-lane refreshes,
    /// obs-only).
    obs_cand_invalidations: u64,
}

impl MemoryController {
    /// Creates a controller over `device` with the given MC-side
    /// mitigation (use [`crate::NoMcMitigation`] for DRAM-side schemes)
    /// and the default (event-driven) scheduler core.
    pub fn new(device: DramDevice, config: McConfig, mitigation: Box<dyn McMitigation>) -> Self {
        Self::with_scheduler(device, config, mitigation, SchedulerKind::default())
    }

    /// Like [`new`](MemoryController::new) but with an explicit scheduler
    /// core — `SchedulerKind::NaiveRescan` selects the reference rescan
    /// implementation (differential testing, perf comparison).
    pub fn with_scheduler(
        device: DramDevice,
        config: McConfig,
        mitigation: Box<dyn McMitigation>,
        scheduler: SchedulerKind,
    ) -> Self {
        MemoryController::with_obs(device, config, mitigation, scheduler, NullSink)
    }
}

impl<S: EventSink> MemoryController<S> {
    /// Like [`with_scheduler`](MemoryController::with_scheduler) but with
    /// an explicit observability sink, enabling structured event tracing
    /// on this channel.
    pub fn with_obs(
        device: DramDevice,
        config: McConfig,
        mitigation: Box<dyn McMitigation>,
        scheduler: SchedulerKind,
        obs: S,
    ) -> Self {
        let nbanks = device.geometry().banks_total();
        let nranks = device.geometry().ranks;
        let trefi = device.timing().trefi;
        let words = nbanks.div_ceil(64);
        let mut mc = Self {
            device,
            config,
            scheduler,
            mit_generation: mitigation.release_generation(),
            mitigation,
            qos: None,
            bliss: config.bliss.then(Bliss::default),
            lanes: (0..nbanks).map(|_| BankLane::default()).collect(),
            cand_at: vec![0; nbanks],
            cand_prio: vec![0; nbanks],
            dirty: vec![0; words],
            active: vec![0; words],
            held: vec![0; words],
            // Stagger rank refreshes to avoid lock-step tRFC stalls.
            next_ref: (0..nranks)
                .map(|r| trefi + (r as TimePs) * (trefi / nranks.max(1) as TimePs))
                .collect(),
            bus_free: 0,
            clock: 0,
            stats: McStats::default(),
            completions: Vec::new(),
            log: None,
            obs,
            obs_acts_per_bank: if S::ENABLED {
                vec![0; nbanks]
            } else {
                Vec::new()
            },
            obs_cand_hits: 0,
            obs_cand_invalidations: 0,
        };
        mc.mark_all_dirty();
        mc
    }

    /// The observability sink.
    pub fn obs(&self) -> &S {
        &self.obs
    }

    /// Mutable access to the observability sink (draining captured
    /// events at the end of a run).
    pub fn obs_mut(&mut self) -> &mut S {
        &mut self.obs
    }

    /// Per-bank cumulative ACT counts. Empty when obs is disabled.
    pub fn obs_bank_acts(&self) -> &[u64] {
        &self.obs_acts_per_bank
    }

    /// Event-core candidate-cache counters: `(hits, invalidations)` —
    /// lanes considered from cache vs. lanes recomputed. Zero when obs is
    /// disabled or under the naive core.
    pub fn obs_cand_counters(&self) -> (u64, u64) {
        (self.obs_cand_hits, self.obs_cand_invalidations)
    }

    /// Aggregate snapshot of every bank engine's tracker structure.
    pub fn observe_trackers(&self) -> TrackerObservation {
        self.device.observe_trackers()
    }

    /// O(1) snapshot of one bank engine's tracker (all-zero when the
    /// engine exposes none).
    #[inline]
    fn tracker_obs(&self, bank: BankId) -> TrackerObservation {
        self.device
            .engine(bank)
            .observe_tracker()
            .unwrap_or_default()
    }

    /// One bank engine's fault counters (all-zero when not fault-wrapped).
    #[inline]
    fn bank_fault_stats(&self, bank: BankId) -> FaultStats {
        self.device.engine(bank).fault_stats().unwrap_or_default()
    }

    /// Emits a lane-invalidation event (obs-on builds only).
    #[inline]
    fn obs_lane(&mut self, at: TimePs, bank: BankId, cause: LaneCause) {
        if S::ENABLED {
            self.obs.emit(
                at,
                Event::LaneInvalidate {
                    bank: bank as u32,
                    cause,
                },
            );
        }
    }

    /// Emits fault inject/detect/repair events for any counter movement
    /// on `bank`'s engine since `pre` (obs-on builds only; call sites
    /// guard with `S::ENABLED`).
    fn obs_fault_deltas(&mut self, at: TimePs, bank: BankId, pre: FaultStats) {
        let post = self.bank_fault_stats(bank);
        let injected = post.injected() - pre.injected();
        if injected > 0 {
            self.obs.emit(
                at,
                Event::FaultInject {
                    bank: bank as u32,
                    count: injected,
                },
            );
        }
        if post.scrub_detections > pre.scrub_detections {
            self.obs.emit(
                at,
                Event::FaultDetect {
                    bank: bank as u32,
                    count: post.scrub_detections - pre.scrub_detections,
                },
            );
        }
        if post.repairs > pre.repairs {
            self.obs.emit(
                at,
                Event::FaultRepair {
                    bank: bank as u32,
                    count: post.repairs - pre.repairs,
                },
            );
        }
    }

    /// The scheduler core driving this controller.
    pub fn scheduler(&self) -> SchedulerKind {
        self.scheduler
    }

    /// Enables or disables command-stream recording (differential tests).
    pub fn record_commands(&mut self, on: bool) {
        self.log = if on { Some(Vec::new()) } else { None };
    }

    /// Takes the recorded command stream, leaving recording enabled.
    pub fn take_command_log(&mut self) -> Vec<CommandRecord> {
        self.log.as_mut().map(std::mem::take).unwrap_or_default()
    }

    /// Queues a request.
    ///
    /// # Panics
    ///
    /// Panics if the request's bank is out of range.
    pub fn enqueue(&mut self, req: MemRequest) {
        assert!(
            req.addr.bank < self.lanes.len(),
            "bank {} out of range",
            req.addr.bank
        );
        self.mark_dirty(req.addr.bank);
        self.obs_lane(self.clock, req.addr.bank, LaneCause::Enqueue);
        self.lanes[req.addr.bank].queue.push_back(req);
    }

    /// Total queued (not yet serviced) requests.
    pub fn pending(&self) -> usize {
        self.lanes.iter().map(|b| b.queue.len()).sum()
    }

    /// Current controller clock.
    pub fn now(&self) -> TimePs {
        self.clock
    }

    /// Controller statistics (borrowed: `McStats` carries per-core
    /// latency histograms, so it is not `Copy`).
    pub fn stats(&self) -> &McStats {
        &self.stats
    }

    /// Row-buffer hit rate: the fraction of column commands (the device
    /// ledger's reads + writes) that reused an open row instead of paying
    /// for the activation that opened it. 0.0 = every column needed its
    /// own ACT (no locality); values near 1.0 mean long same-row bursts.
    pub fn row_hit_rate(&self) -> f64 {
        let c = self.device.counters();
        let cols = c.reads + c.writes;
        if cols == 0 {
            0.0
        } else {
            CoreStats::total(&self.stats.per_core).row_hits as f64 / cols as f64
        }
    }

    /// The DRAM device behind this controller.
    pub fn device(&self) -> &DramDevice {
        &self.device
    }

    /// Consumes the controller, returning the device (for end-of-run
    /// inspection of oracles and energy counters).
    pub fn into_device(self) -> DramDevice {
        self.device
    }

    /// The MC-side mitigation.
    pub fn mitigation(&self) -> &dyn McMitigation {
        self.mitigation.as_ref()
    }

    /// Installs (or removes) the multi-tenant QoS policy. A dry suspect's
    /// release is the absolute end of the current score window, cached
    /// with each lane's activation candidate like any mitigation release;
    /// window rotations and newly dry buckets invalidate every lane.
    ///
    /// Call before advancing the controller; switching policies mid-run
    /// is supported but resets no QoS state.
    pub fn set_qos(&mut self, policy: QosPolicy) {
        self.qos = QosState::new(policy);
        self.mark_all_dirty();
    }

    /// Snapshot of the QoS layer's bookkeeping; `None` when QoS is off,
    /// so QoS-off reports carry no QoS section at all.
    pub fn qos_stats(&self) -> Option<QosStats> {
        self.qos.as_ref().map(|q| q.stats())
    }

    /// Advances the command loop until no action can issue at or before
    /// `end`, appending completions to a caller-owned buffer so a
    /// simulation loop can reuse one `Vec` across epochs.
    ///
    /// The controller clock tracks the last executed command, *not* `end`:
    /// callers may interleave `enqueue`/`advance_until_into` at the same
    /// fence repeatedly (the simulator's intra-epoch relaxation).
    ///
    /// A queued request is schedulable at once: `arrival` orders requests
    /// (FR-FCFS age) but does not hold one back until the controller
    /// clock reaches it. A caller that enqueues requests stamped ahead of
    /// that clock, as the simulator's cores do when they run ahead to the
    /// epoch fence, can see commands issue before their request arrives,
    /// and such a read records a latency of 0 (`done` saturates against
    /// `arrival`). ROADMAP.md records the measured size of this gap.
    pub fn advance_until_into(&mut self, end: TimePs, out: &mut Vec<Completion>) {
        match self.scheduler {
            SchedulerKind::EventQueue => self.advance_event(end),
            SchedulerKind::NaiveRescan => self.advance_naive(end),
        }
        out.append(&mut self.completions);
    }

    fn advance_naive(&mut self, end: TimePs) {
        loop {
            match self.next_candidate() {
                Some((t, action)) if t <= end => {
                    self.clock = t;
                    if let Some(b) = &mut self.bliss {
                        b.tick(t);
                    }
                    self.execute(action, t);
                }
                _ => break,
            }
        }
    }

    fn advance_event(&mut self, end: TimePs) {
        loop {
            match self.next_candidate_event() {
                Some((t, action)) if t <= end => {
                    self.clock = t;
                    let cleared = match &mut self.bliss {
                        Some(b) => b.tick(t),
                        None => false,
                    };
                    if cleared {
                        // Blacklist changes reorder request priorities on
                        // every bank.
                        self.mark_all_dirty();
                        if S::ENABLED {
                            self.obs.emit(t, Event::BlissClear);
                        }
                    }
                    self.execute(action, t);
                }
                _ => break,
            }
        }
    }

    // --------------------------------------------------- event-core bitsets

    #[inline]
    fn mark_dirty(&mut self, b: BankId) {
        self.dirty[b >> 6] |= 1u64 << (b & 63);
    }

    fn mark_dirty_range(&mut self, lo: BankId, hi: BankId) {
        for b in lo..hi {
            self.mark_dirty(b);
        }
    }

    fn mark_all_dirty(&mut self) {
        for w in &mut self.dirty {
            *w = !0;
        }
        let tail = self.lanes.len() & 63;
        if tail != 0 {
            let w = self.dirty.len() - 1;
            self.dirty[w] = (1u64 << tail) - 1;
        }
    }

    /// A throttle release changed beyond the executing bank (QoS
    /// rotation or dry bucket, mitigation release generation).
    fn releases_changed(&mut self, at: TimePs) {
        self.mark_all_dirty();
        self.obs_lane(at, 0, LaneCause::Throttle);
    }

    /// Recomputes the cached candidate of every dirty bank and clears the
    /// dirty set. A held lane is dirty once its ACT base has reached its
    /// `stale_at`: the clock released another queued request.
    fn refresh_dirty_candidates(&mut self) {
        for w in 0..self.held.len() {
            let mut bits = self.held[w];
            while bits != 0 {
                let b = (w << 6) + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if self.device.earliest_activate(b, self.clock) >= self.lanes[b].stale_at {
                    self.mark_dirty(b);
                    self.obs_lane(self.clock, b, LaneCause::Throttle);
                }
            }
        }
        for w in 0..self.dirty.len() {
            let mut bits = self.dirty[w];
            if bits == 0 {
                continue;
            }
            self.dirty[w] = 0;
            while bits != 0 {
                let b = (w << 6) + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if S::ENABLED {
                    self.obs_cand_invalidations += 1;
                }
                self.recompute_lane(b);
            }
        }
    }

    /// Recomputes bank `b`'s cached command. Mirrors the decision logic
    /// of `bank_candidates` exactly, but stores *base* times: constraints
    /// that slide with the clock (clock itself, the data bus, rank
    /// tRRD/tFAW) are left to selection-time clamps. An ACT folds in its
    /// absolute throttle release and sets `stale_at`.
    fn recompute_lane(&mut self, b: BankId) {
        let bank = self.device.bank(b);
        let open = bank.open_row();
        let lane = &self.lanes[b];
        let mut stale_at = TimePs::MAX;
        let next = if lane.rfm_pending || !lane.arr_queue.is_empty() {
            Some(match open {
                Some(row) => match self.best_hit(lane, row) {
                    // Row hits may drain first (RAAMMT slack), but if none
                    // are serviceable we close the row for maintenance.
                    Some(pos) if lane.hits_served < MAX_ROW_HITS => {
                        (Cmd::Column { pos: pos as u32 }, bank.earliest_column())
                    }
                    _ => (Cmd::MaintPre, bank.earliest_precharge()),
                },
                None => {
                    let cmd = if lane.rfm_pending { Cmd::Rfm } else { Cmd::Arr };
                    (cmd, bank.earliest_activate())
                }
            })
        } else {
            match open {
                Some(row) => {
                    let hit = if lane.hits_served < MAX_ROW_HITS {
                        self.best_hit(lane, row)
                    } else {
                        None
                    };
                    Some(match hit {
                        Some(pos) => (Cmd::Column { pos: pos as u32 }, bank.earliest_column()),
                        // Minimalist-open: no serviceable hit (or hit
                        // budget spent): close the row.
                        None => (Cmd::Pre, bank.earliest_precharge()),
                    })
                }
                None => self.best_activation(b, lane).map(|(act, time, stale)| {
                    stale_at = stale;
                    (act, time)
                }),
            }
        };
        let word = b >> 6;
        let bit = 1u64 << (b & 63);
        let lane = &mut self.lanes[b];
        lane.cmd = next.map(|(cmd, _)| cmd);
        lane.stale_at = stale_at;
        match next {
            Some((cmd, time)) => {
                self.active[word] |= bit;
                self.cand_at[b] = time;
                self.cand_prio[b] = cmd.priority();
            }
            None => self.active[word] &= !bit,
        }
        if stale_at == TimePs::MAX {
            self.held[word] &= !bit;
        } else {
            self.held[word] |= bit;
        }
    }

    /// The event-core selection scan: refresh stale candidates, then take
    /// the minimum over (time, priority, flat index) of per-rank refresh
    /// events and active banks' cached candidates, applying the
    /// selection-time clamps. The key order equals the naive scan's
    /// first-wins enumeration order (see ARCHITECTURE.md), so both cores
    /// pick the same action.
    fn next_candidate_event(&mut self) -> Option<(TimePs, Action)> {
        self.refresh_dirty_candidates();

        let geometry = *self.device.geometry();
        let timing = *self.device.timing();
        let clock = self.clock;
        let bus_ready = self.bus_free.saturating_sub(timing.tcl);

        let mut best: Option<((TimePs, u8, usize), Action)> = None;
        let mut consider = |t: TimePs, idx: usize, action: Action| {
            let key = (t, action.priority(), idx);
            if best.is_none_or(|(bk, _)| key < bk) {
                best = Some((key, action));
            }
        };

        for rank in geometry.rank_ids() {
            let lo = rank.0 * geometry.banks_per_rank;
            let hi = lo + geometry.banks_per_rank;
            let due = self.next_ref[rank.0];
            if clock >= due {
                // Refresh overdue: close rows, then REF. This is a fresh
                // per-bank scan (once per tREFI per rank — rare); cached
                // candidates on the rank are suppressed, matching the
                // naive core's "no new work while overdue" rule.
                let mut all_ready = true;
                let mut ready_at = clock.max(due);
                for b in lo..hi {
                    let bank = self.device.bank(b);
                    if bank.open_row().is_some() {
                        all_ready = false;
                        let (t, cmd) = (clock.max(bank.earliest_precharge()), Cmd::MaintPre);
                        consider(t, b, Action::Bank { bank: b, cmd });
                    } else {
                        ready_at = ready_at.max(bank.earliest_activate());
                    }
                }
                if all_ready {
                    consider(ready_at, lo, Action::Ref { rank });
                }
                continue;
            }
            // Upcoming refresh also schedules itself (so we don't stall
            // waiting for external events when queues are empty).
            consider(due, lo, Action::Ref { rank });

            // One clamp per priority: the clock for maintenance and PRE,
            // the data bus for columns, and the rank-wide ACT floor
            // (tRRD / tFAW), applied here instead of invalidating every
            // sibling bank on each ACT. Eight entries, so indexing by
            // `prio & 7` needs no bounds check.
            let mut floor = [clock; 8];
            floor[PRIO_COLUMN as usize] = clock.max(bus_ready);
            floor[PRIO_ACT as usize] = clock.max(self.device.earliest_rank_activate(rank, clock));

            // The lane minimum over packed (time, priority, flat index)
            // keys: the u128 order is exactly the tuple order, because
            // each field fits below the next one's shift.
            let mut lane_min = u128::MAX;
            let wlo = lo >> 6;
            let whi = (hi - 1) >> 6;
            for w in wlo..=whi {
                let mut bits = self.active[w];
                if w == wlo {
                    bits &= !0u64 << (lo & 63);
                }
                let top = hi & 63;
                if w == whi && top != 0 {
                    bits &= (1u64 << top) - 1;
                }
                if S::ENABLED {
                    self.obs_cand_hits += u64::from(bits.count_ones());
                }
                while bits != 0 {
                    let b = (w << 6) + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let prio = self.cand_prio[b];
                    let t = self.cand_at[b].max(floor[usize::from(prio & 7)]);
                    let key = u128::from(t) << 64 | u128::from(prio) << 32 | b as u128;
                    lane_min = lane_min.min(key);
                }
            }
            if lane_min != u128::MAX {
                let b = lane_min as u32 as usize;
                let cmd = self.lanes[b].cmd.expect("active lane caches a command");
                consider((lane_min >> 64) as TimePs, b, Action::Bank { bank: b, cmd });
            }
        }
        best.map(|((t, _, _), action)| (t, action))
    }

    // ------------------------------------------------ naive-core candidates

    fn next_candidate(&self) -> Option<(TimePs, Action)> {
        let mut best: Option<(TimePs, Action)> = None;
        let mut consider = |t: TimePs, a: Action| {
            let better = match &best {
                None => true,
                Some((bt, ba)) => (t, a.priority()) < (*bt, ba.priority()),
            };
            if better {
                best = Some((t, a));
            }
        };

        let timing = *self.device.timing();
        let geometry = *self.device.geometry();

        for rank in geometry.rank_ids() {
            let due = self.next_ref[rank.0];
            if self.clock >= due {
                // Refresh overdue: close rows, then REF.
                let lo = rank.0 * geometry.banks_per_rank;
                let hi = lo + geometry.banks_per_rank;
                let mut all_ready = true;
                let mut ready_at = self.clock.max(due);
                for b in lo..hi {
                    let bank = self.device.bank(b);
                    if bank.open_row().is_some() {
                        all_ready = false;
                        let (t, cmd) = (self.clock.max(bank.earliest_precharge()), Cmd::MaintPre);
                        consider(t, Action::Bank { bank: b, cmd });
                    } else {
                        ready_at = ready_at.max(bank.earliest_activate());
                    }
                }
                if all_ready {
                    consider(ready_at, Action::Ref { rank });
                }
                // While a rank's refresh is overdue, suppress new work on it.
                continue;
            }
            // Upcoming refresh also schedules itself (so we don't stall
            // waiting for external events when queues are empty).
            consider(due, Action::Ref { rank });

            for b in (rank.0 * geometry.banks_per_rank)..((rank.0 + 1) * geometry.banks_per_rank) {
                self.bank_candidates(b, &timing, &mut consider);
            }
        }
        best
    }

    fn bank_candidates(
        &self,
        b: BankId,
        timing: &mithril_dram::Ddr5Timing,
        emit: &mut impl FnMut(TimePs, Action),
    ) {
        let mut consider = |t: TimePs, cmd: Cmd| emit(t, Action::Bank { bank: b, cmd });
        let bq = &self.lanes[b];
        let bank = self.device.bank(b);
        let open = bank.open_row();

        // Maintenance: a pending RFM or ARR takes priority over new ACTs.
        if bq.rfm_pending || !bq.arr_queue.is_empty() {
            match open {
                Some(_) => {
                    // Row hits may drain first (RAAMMT slack), but if none
                    // are serviceable we close the row.
                    if let Some(pos) = self.best_hit(bq, open.unwrap()) {
                        if bq.hits_served < MAX_ROW_HITS {
                            let cmd = Cmd::Column { pos: pos as u32 };
                            consider(self.column_time(bank, timing), cmd);
                            return;
                        }
                        let _ = pos;
                    }
                    consider(self.clock.max(bank.earliest_precharge()), Cmd::MaintPre);
                }
                None => {
                    let t = self.clock.max(bank.earliest_activate());
                    if bq.rfm_pending {
                        consider(t, Cmd::Rfm);
                    } else {
                        consider(t, Cmd::Arr);
                    }
                }
            }
            return;
        }

        match open {
            Some(row) => {
                if bq.hits_served < MAX_ROW_HITS {
                    if let Some(pos) = self.best_hit(bq, row) {
                        let cmd = Cmd::Column { pos: pos as u32 };
                        consider(self.column_time(bank, timing), cmd);
                        return;
                    }
                }
                // Minimalist-open: no serviceable hit (or hit budget spent):
                // close the row.
                consider(self.clock.max(bank.earliest_precharge()), Cmd::Pre);
            }
            None => {
                if let Some((act, t, _)) = self.best_activation(b, bq) {
                    consider(t, act);
                }
            }
        }
    }

    /// Highest-priority row-hit request position, if any.
    fn best_hit(&self, bq: &BankLane, row: RowId) -> Option<usize> {
        let mut best: Option<(bool, TimePs, usize)> = None;
        for (i, req) in bq.queue.iter().enumerate() {
            if req.addr.row != row {
                continue;
            }
            let key = (self.is_blacklisted(req.thread), req.arrival, i);
            if best.is_none_or(|b| key < b) {
                best = Some(key);
            }
        }
        best.map(|(_, _, i)| i)
    }

    /// FR-FCFS activation choice of bank `b` at the current clock: the
    /// minimum over queued requests of (issue time, blacklisted, arrival,
    /// position), where a request issues at `max(base, release)`, `base`
    /// is the bank's earliest legal ACT and `release` the later of its
    /// mitigation and QoS throttle releases (both absolute). Returns the
    /// `Cmd::Act`, its issue time, and the smallest queued release above
    /// `base` (`TimePs::MAX` if none).
    fn best_activation(&self, b: BankId, bq: &BankLane) -> Option<(Cmd, TimePs, TimePs)> {
        if bq.queue.is_empty() {
            return None;
        }
        let base = self.device.earliest_activate(b, self.clock);
        let mut best: Option<(TimePs, bool, TimePs, usize)> = None;
        let (mut best_mit, mut best_qos) = (0, 0);
        let mut stale_at = TimePs::MAX;
        for (i, req) in bq.queue.iter().enumerate() {
            let mit = self
                .mitigation
                .activate_allowed_at(b, req.addr.row, req.thread);
            let qos = self
                .qos
                .as_ref()
                .map_or(0, |q| q.activate_allowed_at(req.thread));
            let release = mit.max(qos);
            if release > base {
                stale_at = stale_at.min(release);
            }
            let key = (
                base.max(release),
                self.is_blacklisted(req.thread),
                req.arrival,
                i,
            );
            if best.is_none_or(|k| key < k) {
                best = Some(key);
                (best_mit, best_qos) = (mit, qos);
            }
        }
        best.map(|(time, _, _, pos)| {
            let act = Cmd::Act {
                pos: pos as u32,
                throttled: time > base,
                qos_throttled: best_qos > base.max(best_mit),
            };
            (act, time, stale_at)
        })
    }

    fn is_blacklisted(&self, thread: usize) -> bool {
        self.bliss
            .as_ref()
            .is_some_and(|b| b.is_blacklisted(thread))
    }

    /// Earliest time a column command may issue on `bank`, considering the
    /// shared data bus.
    fn column_time(&self, bank: &mithril_dram::Bank, timing: &mithril_dram::Ddr5Timing) -> TimePs {
        let bus_ready = self.bus_free.saturating_sub(timing.tcl);
        self.clock.max(bank.earliest_column()).max(bus_ready)
    }

    // ------------------------------------------------------------ execution

    #[inline]
    fn log_cmd(&mut self, at: TimePs, kind: CommandKind, bank: BankId, row: RowId) {
        if let Some(log) = &mut self.log {
            log.push(CommandRecord {
                at,
                kind,
                bank,
                row,
            });
        }
    }

    fn execute(&mut self, action: Action, now: TimePs) {
        // Rotate QoS score windows before the command's effects land, so
        // both scheduler cores rotate at identical points of the
        // (identical) command stream.
        if self.qos.as_mut().is_some_and(|q| q.tick(now)) {
            self.releases_changed(now);
        }
        match action {
            Action::Ref { rank } => {
                if !self.device.can_refresh_rank(rank, now) {
                    // Scheduled at its due time while banks were still busy
                    // or open; the next pass treats the refresh as overdue
                    // and closes rows first.
                    return;
                }
                let (_, rows_lo, rows_hi) = self.device.issue_refresh_rank(rank, now);
                let lo = rank.0 * self.device.geometry().banks_per_rank;
                let hi = lo + self.device.geometry().banks_per_rank;
                for bank in lo..hi {
                    self.mitigation.on_auto_refresh(bank, rows_lo, rows_hi);
                }
                self.next_ref[rank.0] += self.device.timing().trefi;
                self.stats.refs += 1;
                // Every bank of the rank went busy for tRFC.
                self.mark_dirty_range(lo, hi);
                if S::ENABLED {
                    self.obs.emit(
                        now,
                        Event::Ref {
                            rank: rank.0 as u32,
                            banks: (hi - lo) as u32,
                        },
                    );
                    self.obs_lane(now, lo, LaneCause::RefSegment);
                }
                self.log_cmd(now, CommandKind::Ref, lo, 0);
            }
            Action::Bank { bank, cmd } => self.execute_bank(bank, cmd, now),
        }
    }

    fn execute_bank(&mut self, bank: BankId, cmd: Cmd, now: TimePs) {
        match cmd {
            Cmd::MaintPre | Cmd::Pre => {
                self.device.issue_precharge(bank, now);
                self.mark_dirty(bank);
                self.obs_lane(now, bank, LaneCause::Execute);
                let kind = if cmd == Cmd::Pre {
                    CommandKind::Pre
                } else {
                    CommandKind::MaintPre
                };
                self.log_cmd(now, kind, bank, 0);
            }
            Cmd::Rfm => {
                if self.config.rfm_mode == RfmMode::MrrElision {
                    let pending = self.device.issue_mrr(bank);
                    if !pending {
                        self.stats.rfm_elisions += 1;
                        self.lanes[bank].rfm_pending = false;
                        self.lanes[bank].raa = 0;
                        self.mark_dirty(bank);
                        if S::ENABLED {
                            self.obs.emit(now, Event::RfmElided { bank: bank as u32 });
                            self.obs_lane(now, bank, LaneCause::Execute);
                        }
                        self.log_cmd(now, CommandKind::RfmElided, bank, 0);
                        return;
                    }
                }
                let pre_faults = if S::ENABLED {
                    self.bank_fault_stats(bank)
                } else {
                    FaultStats::default()
                };
                let (aggressor, victims, skipped) = {
                    let (out, _) = self.device.issue_rfm(bank, now);
                    (
                        out.selected_aggressor,
                        out.refreshed_victims.len() as u32,
                        out.skipped,
                    )
                };
                self.lanes[bank].rfm_pending = false;
                self.lanes[bank].raa = 0;
                self.mark_dirty(bank);
                if S::ENABLED {
                    self.obs.emit(
                        now,
                        Event::Rfm {
                            bank: bank as u32,
                            aggressor,
                            victims,
                            skipped,
                        },
                    );
                    self.obs_lane(now, bank, LaneCause::Execute);
                    self.obs_fault_deltas(now, bank, pre_faults);
                }
                self.log_cmd(now, CommandKind::Rfm, bank, 0);
            }
            Cmd::Arr => {
                let victims = self.lanes[bank]
                    .arr_queue
                    .pop_front()
                    .expect("ARR action requires a queued ARR");
                self.device.issue_arr(bank, &victims, now);
                self.stats.arrs += 1;
                self.mark_dirty(bank);
                if S::ENABLED {
                    self.obs.emit(
                        now,
                        Event::Arr {
                            bank: bank as u32,
                            victims: victims.len() as u32,
                        },
                    );
                    self.obs_lane(now, bank, LaneCause::Execute);
                }
                self.log_cmd(now, CommandKind::Arr, bank, victims.len() as RowId);
            }
            Cmd::Column { pos } => {
                let req = self.lanes[bank]
                    .queue
                    .remove(pos as usize)
                    .expect("valid queue position");
                let done = if req.is_write {
                    self.device.issue_write(bank, req.addr.row, now)
                } else {
                    self.device.issue_read(bank, req.addr.row, now)
                };
                // Only columns beyond the first per activation are
                // row-buffer *reuse*; counting the ACT's own column would
                // pin the hit rate at 1.0.
                let row_hit = self.lanes[bank].hits_served > 0;
                self.lanes[bank].hits_served += 1;
                let timing = self.device.timing();
                self.bus_free = now + timing.tcl + timing.tbl;
                let latency = done.saturating_sub(req.arrival);
                let core = self.stats.per_core.slot(req.thread);
                core.row_hits += u64::from(row_hit);
                if req.is_write {
                    core.write_latency.record(latency);
                } else {
                    core.read_latency.record(latency);
                }
                self.mark_dirty(bank);
                self.obs_lane(now, bank, LaneCause::Execute);
                let blacklist_changed = match &mut self.bliss {
                    Some(bl) => bl.on_request_served(req.thread, now),
                    None => false,
                };
                if blacklist_changed {
                    self.mark_all_dirty();
                    self.obs_lane(now, bank, LaneCause::BlissChange);
                }
                self.log_cmd(
                    now,
                    if req.is_write {
                        CommandKind::Write
                    } else {
                        CommandKind::Read
                    },
                    bank,
                    req.addr.row,
                );
                self.completions.push(Completion {
                    request_id: req.id,
                    thread: req.thread,
                    at: done,
                    is_write: req.is_write,
                });
            }
            Cmd::Act {
                pos,
                throttled,
                qos_throttled,
            } => {
                let req = self.lanes[bank].queue[pos as usize];
                let (pre_obs, pre_faults) = if S::ENABLED {
                    (self.tracker_obs(bank), self.bank_fault_stats(bank))
                } else {
                    (TrackerObservation::default(), FaultStats::default())
                };
                self.device.issue_activate(bank, req.addr.row, now);
                let core = self.stats.per_core.slot(req.thread);
                core.acts += 1;
                self.lanes[bank].hits_served = 0;
                if throttled {
                    core.throttled_acts += 1;
                }
                if self
                    .qos
                    .as_mut()
                    .is_some_and(|q| q.on_act(req.thread, qos_throttled))
                {
                    self.releases_changed(now);
                }
                if self.config.rfm_mode != RfmMode::Disabled {
                    self.lanes[bank].raa += 1;
                    if self.lanes[bank].raa >= self.config.rfm_th && !self.lanes[bank].rfm_pending {
                        self.lanes[bank].rfm_pending = true;
                        // The crossing ACT armed this RFM: charge it to the
                        // issuing core, not to the bank cadence that will
                        // later issue the command.
                        self.stats.per_core.slot(req.thread).rfm_triggers += 1;
                        if let Some(q) = &mut self.qos {
                            q.on_pressure(req.thread);
                        }
                    }
                }
                self.mark_dirty(bank);
                if S::ENABLED {
                    self.obs_acts_per_bank[bank] += 1;
                    self.obs.emit(
                        now,
                        Event::Act {
                            bank: bank as u32,
                            row: req.addr.row,
                        },
                    );
                    self.obs_lane(now, bank, LaneCause::Execute);
                    let post = self.tracker_obs(bank);
                    if post.evictions > pre_obs.evictions {
                        self.obs.emit(
                            now,
                            Event::TableEvict {
                                bank: bank as u32,
                                evictions: post.evictions - pre_obs.evictions,
                            },
                        );
                    }
                    if post.invalidations > pre_obs.invalidations {
                        self.obs.emit(
                            now,
                            Event::TableInvalidate {
                                bank: bank as u32,
                                invalidations: post.invalidations - pre_obs.invalidations,
                            },
                        );
                    }
                    self.obs_fault_deltas(now, bank, pre_faults);
                }
                self.log_cmd(now, CommandKind::Act, bank, req.addr.row);
                match self
                    .mitigation
                    .on_activate(bank, req.addr.row, req.thread, now)
                {
                    McAction::None => {}
                    McAction::Arr {
                        bank: target,
                        victims,
                    } => {
                        // The reacting engine saw this core's ACT: the
                        // trigger is attributed to the hammering core even
                        // though the ARR lands on `target`'s victims.
                        self.stats.per_core.slot(req.thread).mitigation_triggers += 1;
                        if let Some(q) = &mut self.qos {
                            q.on_pressure(req.thread);
                        }
                        if S::ENABLED {
                            self.obs.emit(
                                now,
                                Event::MitigationTrigger {
                                    bank: target as u32,
                                    victims: victims.len() as u32,
                                },
                            );
                            self.obs_lane(now, target, LaneCause::ArrTarget);
                        }
                        self.lanes[target].arr_queue.push_back(victims);
                        self.mark_dirty(target);
                    }
                }
                let generation = self.mitigation.release_generation();
                if generation != self.mit_generation {
                    self.mit_generation = generation;
                    self.releases_changed(now);
                }
            }
        }
    }
}

impl<S: EventSink> std::fmt::Debug for MemoryController<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoryController")
            .field("clock", &self.clock)
            .field("scheduler", &self.scheduler)
            .field("pending", &self.pending())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::AddressMapping;
    use crate::mitigation::NoMcMitigation;
    use mithril_dram::{Ddr5Timing, Geometry, NoMitigation, PS_PER_MS, PS_PER_US};

    fn controller_with(
        config: McConfig,
        kind: SchedulerKind,
    ) -> (MemoryController, AddressMapping) {
        let geometry = Geometry::default();
        let device = DramDevice::new(geometry, Ddr5Timing::ddr5_4800(), 100_000, 1, |_| {
            Box::new(NoMitigation)
        });
        (
            MemoryController::with_scheduler(device, config, Box::new(NoMcMitigation), kind),
            AddressMapping::new(geometry),
        )
    }

    fn controller(config: McConfig) -> (MemoryController, AddressMapping) {
        controller_with(config, SchedulerKind::default())
    }

    fn drain(mc: &mut MemoryController, end: TimePs) -> Vec<Completion> {
        let mut out = Vec::new();
        mc.advance_until_into(end, &mut out);
        out
    }

    #[test]
    fn latency_histogram_and_per_core_attribution_match_totals() {
        let (mut mc, _) = controller(McConfig::default());
        // Threads 0 and 1 hit different rows of different banks; thread 1
        // issues twice as many reads plus a writeback.
        for i in 0..6u64 {
            let thread = usize::from(i % 3 != 0);
            let addr = crate::mapping::MappedAddr {
                channel: mithril_dram::ChannelId(0),
                bank: (i % 4) as usize,
                row: 10 + i,
                col: 0,
            };
            mc.enqueue(MemRequest::read(i, addr, thread, 0));
        }
        let wb = crate::mapping::MappedAddr {
            channel: mithril_dram::ChannelId(0),
            bank: 0,
            row: 99,
            col: 0,
        };
        mc.enqueue(MemRequest::write(100, wb, 1, 0));
        let done = drain(&mut mc, PS_PER_MS);
        assert_eq!(done.len(), 7);

        let s = mc.stats();
        let c = *mc.device().counters();
        // Per-core records sum to the device ledger.
        let total = CoreStats::total(&s.per_core);
        assert_eq!(total.acts, c.acts);
        assert_eq!(total.read_latency.count(), c.reads);
        assert_eq!(total.write_latency.count(), c.writes);
        assert!(total.read_latency.min() > 0, "reads cannot complete at t=0");
        let core = |i| s.per_core.get(i).unwrap();
        assert_eq!(core(0).read_latency.count(), 2);
        assert_eq!(core(1).read_latency.count(), 4);
        assert_eq!(core(1).write_latency.count(), 1);
        assert!(core(0).write_latency.is_empty());
    }

    #[test]
    fn single_read_completes_with_act_latency() {
        let (mut mc, map) = controller(McConfig::default());
        let t = Ddr5Timing::ddr5_4800();
        mc.enqueue(MemRequest::read(1, map.map_line(64), 0, 0));
        let done = drain(&mut mc, PS_PER_US);
        assert_eq!(done.len(), 1);
        // ACT at 0, RD at tRCD, data at tRCD + tCL + tBL.
        assert_eq!(done[0].at, t.trcd + t.tcl + t.tbl);
    }

    #[test]
    fn naive_scheduler_completes_single_read_identically() {
        let t = Ddr5Timing::ddr5_4800();
        let (mut mc, map) = controller_with(McConfig::default(), SchedulerKind::NaiveRescan);
        mc.enqueue(MemRequest::read(1, map.map_line(64), 0, 0));
        let done = drain(&mut mc, PS_PER_US);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].at, t.trcd + t.tcl + t.tbl);
        assert_eq!(mc.scheduler(), SchedulerKind::NaiveRescan);
    }

    #[test]
    fn priorities_follow_maintenance_first_order() {
        // The order the decision-identity argument (ARCHITECTURE.md)
        // relies on, one distinct value per command kind.
        let bank = |cmd| Action::Bank { bank: 7, cmd };
        let order = [
            Action::Ref { rank: RankId(0) },
            bank(Cmd::MaintPre),
            bank(Cmd::Rfm),
            bank(Cmd::Arr),
            bank(Cmd::Column { pos: 3 }),
            bank(Cmd::Pre),
            bank(Cmd::Act {
                pos: 5,
                throttled: false,
                qos_throttled: false,
            }),
        ];
        let prios: Vec<u8> = order.iter().map(|a| a.priority()).collect();
        assert!(prios.windows(2).all(|w| w[0] < w[1]), "{prios:?}");
        // A throttled ACT ranks like any other ACT.
        let throttled = bank(Cmd::Act {
            pos: 0,
            throttled: true,
            qos_throttled: true,
        });
        assert_eq!(throttled.priority(), prios[6]);
        // Every priority indexes the selection scan's eight-entry floor.
        assert!(prios[6] < 8);
    }

    #[test]
    fn command_log_records_act_and_read() {
        let (mut mc, map) = controller(McConfig::default());
        mc.record_commands(true);
        mc.enqueue(MemRequest::read(1, map.map_line(64), 0, 0));
        drain(&mut mc, PS_PER_US);
        let log = mc.take_command_log();
        let kinds: Vec<CommandKind> = log.iter().map(|c| c.kind).collect();
        assert!(kinds.contains(&CommandKind::Act));
        assert!(kinds.contains(&CommandKind::Read));
        // Taking the log leaves recording on and the buffer empty.
        assert!(mc.take_command_log().is_empty());
    }

    #[test]
    fn row_hits_are_serviced_back_to_back() {
        let (mut mc, _) = controller(McConfig::default());
        // Two lines in the same row, same bank: second is a row hit.
        let a = crate::mapping::MappedAddr {
            channel: mithril_dram::ChannelId(0),
            bank: 0,
            row: 10,
            col: 0,
        };
        let b = crate::mapping::MappedAddr {
            channel: mithril_dram::ChannelId(0),
            bank: 0,
            row: 10,
            col: 1,
        };
        mc.enqueue(MemRequest::read(1, a, 0, 0));
        mc.enqueue(MemRequest::read(2, b, 0, 0));
        let done = drain(&mut mc, PS_PER_US);
        assert_eq!(done.len(), 2);
        assert_eq!(
            mc.device().counters().acts,
            1,
            "second access must be a row hit"
        );
    }

    #[test]
    fn minimalist_open_caps_row_hits() {
        let (mut mc, _) = controller(McConfig::default());
        for i in 0..6u64 {
            let addr = crate::mapping::MappedAddr {
                channel: mithril_dram::ChannelId(0),
                bank: 0,
                row: 10,
                col: i,
            };
            mc.enqueue(MemRequest::read(i, addr, 0, 0));
        }
        let done = drain(&mut mc, 10 * PS_PER_US);
        assert_eq!(done.len(), 6);
        // 6 same-row requests with max 4 hits per activation: 2 ACTs.
        assert_eq!(mc.device().counters().acts, 2);
    }

    #[test]
    fn different_rows_conflict_in_bank() {
        let (mut mc, _) = controller(McConfig::default());
        let a = crate::mapping::MappedAddr {
            channel: mithril_dram::ChannelId(0),
            bank: 0,
            row: 10,
            col: 0,
        };
        let b = crate::mapping::MappedAddr {
            channel: mithril_dram::ChannelId(0),
            bank: 0,
            row: 20,
            col: 0,
        };
        mc.enqueue(MemRequest::read(1, a, 0, 0));
        mc.enqueue(MemRequest::read(2, b, 0, 0));
        let done = drain(&mut mc, PS_PER_US);
        assert_eq!(done.len(), 2);
        assert_eq!(mc.device().counters().acts, 2);
        // Second completes after a full row cycle.
        assert!(done[1].at > Ddr5Timing::ddr5_4800().trc);
    }

    #[test]
    fn auto_refresh_happens_every_trefi() {
        let (mut mc, _) = controller(McConfig::default());
        let t = Ddr5Timing::ddr5_4800();
        drain(&mut mc, 10 * t.trefi + t.trefi / 2);
        assert_eq!(mc.stats().refs, 10);
    }

    #[test]
    fn rfm_issued_every_rfmth_acts() {
        let cfg = McConfig {
            rfm_mode: RfmMode::Standard,
            rfm_th: 4,
            ..Default::default()
        };
        let (mut mc, _) = controller(cfg);
        // 8 activations to bank 0 (different rows → all ACTs).
        for i in 0..8u64 {
            let addr = crate::mapping::MappedAddr {
                channel: mithril_dram::ChannelId(0),
                bank: 0,
                row: 10 + i,
                col: 0,
            };
            mc.enqueue(MemRequest::read(i, addr, 0, 0));
        }
        let done = drain(&mut mc, PS_PER_MS);
        assert_eq!(done.len(), 8);
        assert_eq!(mc.device().counters().acts, 8);
        assert_eq!(
            mc.device().counters().rfm_commands,
            2,
            "RAA reaches 4 twice"
        );
    }

    #[test]
    fn mrr_elision_skips_rfm_for_idle_engine() {
        // NoMitigation reports refresh_pending() = false → every RFM elided.
        let cfg = McConfig {
            rfm_mode: RfmMode::MrrElision,
            rfm_th: 4,
            ..Default::default()
        };
        let (mut mc, _) = controller(cfg);
        for i in 0..8u64 {
            let addr = crate::mapping::MappedAddr {
                channel: mithril_dram::ChannelId(0),
                bank: 0,
                row: 10 + i,
                col: 0,
            };
            mc.enqueue(MemRequest::read(i, addr, 0, 0));
        }
        drain(&mut mc, PS_PER_MS);
        assert_eq!(mc.device().counters().rfm_commands, 0);
        assert_eq!(mc.stats().rfm_elisions, 2);
        assert_eq!(mc.device().counters().mrr_commands, 2);
    }

    #[test]
    fn arr_requests_execute_with_priority() {
        /// Mitigation that ARRs the neighbours of every activation.
        struct ArrEvery;
        impl McMitigation for ArrEvery {
            fn on_activate(
                &mut self,
                bank: BankId,
                row: RowId,
                _thread: usize,
                _now: TimePs,
            ) -> McAction {
                McAction::Arr {
                    bank,
                    victims: vec![row.saturating_sub(1), row + 1],
                }
            }
            fn name(&self) -> &'static str {
                "arr-every"
            }
        }
        let geometry = Geometry::default();
        let device = DramDevice::new(geometry, Ddr5Timing::ddr5_4800(), 100_000, 1, |_| {
            Box::new(NoMitigation)
        });
        let mut mc = MemoryController::new(device, McConfig::default(), Box::new(ArrEvery));
        let addr = crate::mapping::MappedAddr {
            channel: mithril_dram::ChannelId(0),
            bank: 3,
            row: 100,
            col: 0,
        };
        mc.enqueue(MemRequest::read(1, addr, 0, 0));
        drain(&mut mc, PS_PER_US);
        assert_eq!(mc.stats().arrs, 1);
        // The oracle saw the preventive refresh of both neighbours.
        assert_eq!(mc.device().oracle(3).disturbance(99), 0);
        assert_eq!(mc.device().oracle(3).disturbance(101), 0);
        assert_eq!(mc.device().counters().preventive_rows, 2);
    }

    #[test]
    fn throttling_mitigation_delays_acts() {
        /// Releases thread 0's ACTs 1 µs after the bank's previous ACT
        /// (or after time 0).
        #[derive(Default)]
        struct DelayThread0 {
            last_act: std::collections::HashMap<BankId, TimePs>,
        }
        impl McMitigation for DelayThread0 {
            fn on_activate(
                &mut self,
                bank: BankId,
                _row: RowId,
                _thread: usize,
                now: TimePs,
            ) -> McAction {
                self.last_act.insert(bank, now);
                McAction::None
            }
            fn activate_allowed_at(&self, bank: BankId, _row: RowId, thread: usize) -> TimePs {
                if thread == 0 {
                    self.last_act.get(&bank).copied().unwrap_or(0) + PS_PER_US
                } else {
                    0
                }
            }
            fn name(&self) -> &'static str {
                "delay-thread0"
            }
        }
        for kind in [SchedulerKind::EventQueue, SchedulerKind::NaiveRescan] {
            let geometry = Geometry::default();
            let device = DramDevice::new(geometry, Ddr5Timing::ddr5_4800(), 100_000, 1, |_| {
                Box::new(NoMitigation)
            });
            let mut mc = MemoryController::with_scheduler(
                device,
                McConfig::default(),
                Box::new(DelayThread0::default()),
                kind,
            );
            let a = crate::mapping::MappedAddr {
                channel: mithril_dram::ChannelId(0),
                bank: 0,
                row: 1,
                col: 0,
            };
            let b = crate::mapping::MappedAddr {
                channel: mithril_dram::ChannelId(0),
                bank: 1,
                row: 2,
                col: 0,
            };
            mc.enqueue(MemRequest::read(1, a, 0, 0));
            mc.enqueue(MemRequest::read(2, b, 1, 0));
            let done = drain(&mut mc, 10 * PS_PER_US);
            assert_eq!(done.len(), 2);
            let t0 = done.iter().find(|c| c.thread == 0).unwrap();
            let t1 = done.iter().find(|c| c.thread == 1).unwrap();
            assert!(t0.at > PS_PER_US, "thread 0 must be throttled ({kind:?})");
            assert!(
                t1.at < PS_PER_US,
                "thread 1 must not be throttled ({kind:?})"
            );
            assert_eq!(CoreStats::total(&mc.stats().per_core).throttled_acts, 1);
        }
    }

    #[test]
    fn qos_throttles_hammering_thread_under_both_cores() {
        use crate::qos::{QosConfig, QosPolicy};
        let cfg = McConfig {
            rfm_mode: RfmMode::Standard,
            rfm_th: 4,
            ..Default::default()
        };
        for kind in [SchedulerKind::EventQueue, SchedulerKind::NaiveRescan] {
            let (mut mc, _) = controller_with(cfg, kind);
            mc.set_qos(QosPolicy::Throttle(QosConfig {
                window_ps: 500_000,
                tokens_per_window: 2,
                ..QosConfig::default()
            }));
            // Thread 0 hammers bank 0 across distinct rows (every access
            // is an ACT and arms RFMs); thread 1 reads a little on bank 1.
            for i in 0..64u64 {
                let addr = crate::mapping::MappedAddr {
                    channel: mithril_dram::ChannelId(0),
                    bank: 0,
                    row: 10 + i,
                    col: 0,
                };
                mc.enqueue(MemRequest::read(i, addr, 0, 0));
            }
            for i in 0..4u64 {
                let addr = crate::mapping::MappedAddr {
                    channel: mithril_dram::ChannelId(0),
                    bank: 1,
                    row: 500 + i,
                    col: 0,
                };
                mc.enqueue(MemRequest::read(1000 + i, addr, 1, 0));
            }
            let done = drain(&mut mc, PS_PER_MS);
            assert_eq!(done.len(), 68, "all requests still complete ({kind:?})");
            let qos = mc.qos_stats().expect("qos stats present when enabled");
            assert!(qos.windows > 0, "windows rotate ({kind:?})");
            let t0 = qos.per_thread[0];
            assert!(
                t0.suspect_windows > 0,
                "hammering thread elected suspect ({kind:?})"
            );
            assert!(
                t0.throttled_acts > 0,
                "dry token bucket defers the hammer's ACTs ({kind:?})"
            );
            assert_eq!(qos.throttled_acts, t0.throttled_acts);
            assert!(
                qos.per_thread.get(1).is_none_or(|t| t.suspect_windows == 0),
                "light victim thread is never suspect ({kind:?})"
            );
            // QoS deferrals feed the existing throttle attribution too.
            assert!(CoreStats::total(&mc.stats().per_core).throttled_acts >= t0.throttled_acts);
            assert!(mc.stats().per_core.get(0).unwrap().throttled_acts > 0);
        }
    }

    #[test]
    fn qos_off_policy_keeps_controller_unthrottled() {
        use crate::qos::QosPolicy;
        let (mut mc, map) = controller(McConfig::default());
        mc.set_qos(QosPolicy::Off);
        assert!(mc.qos_stats().is_none());
        mc.enqueue(MemRequest::read(1, map.map_line(64), 0, 0));
        let done = drain(&mut mc, PS_PER_US);
        assert_eq!(done.len(), 1);
        assert_eq!(CoreStats::total(&mc.stats().per_core).throttled_acts, 0);
    }

    #[test]
    fn bliss_blacklists_streaming_thread() {
        let (mut mc, _) = controller(McConfig::default());
        // Thread 0 floods bank 0 with row hits; thread 1 queues one
        // request behind them on the same bank, different row.
        for i in 0..4u64 {
            let addr = crate::mapping::MappedAddr {
                channel: mithril_dram::ChannelId(0),
                bank: 0,
                row: 10,
                col: i,
            };
            mc.enqueue(MemRequest::read(i, addr, 0, 0));
        }
        for i in 0..4u64 {
            let addr = crate::mapping::MappedAddr {
                channel: mithril_dram::ChannelId(0),
                bank: 0,
                row: 10,
                col: 4 + i,
            };
            mc.enqueue(MemRequest::read(100 + i, addr, 0, 0));
        }
        let addr1 = crate::mapping::MappedAddr {
            channel: mithril_dram::ChannelId(0),
            bank: 0,
            row: 20,
            col: 0,
        };
        mc.enqueue(MemRequest::read(999, addr1, 1, 0));
        let done = drain(&mut mc, PS_PER_MS);
        assert_eq!(done.len(), 9);
        // After 4 consecutive services, thread 0 is blacklisted and thread
        // 1's row-miss request wins the next activation.
        let pos_t1 = done.iter().position(|c| c.request_id == 999).unwrap();
        assert!(
            pos_t1 < 8,
            "blacklisted stream must not starve thread 1 (pos {pos_t1})"
        );
    }

    #[test]
    fn pending_counts_queued_requests() {
        let (mut mc, map) = controller(McConfig::default());
        mc.enqueue(MemRequest::read(1, map.map_line(0), 0, 0));
        mc.enqueue(MemRequest::read(2, map.map_line(1), 0, 0));
        assert_eq!(mc.pending(), 2);
        drain(&mut mc, PS_PER_US);
        assert_eq!(mc.pending(), 0);
    }

    #[test]
    fn writes_complete_and_count() {
        let (mut mc, map) = controller(McConfig::default());
        mc.enqueue(MemRequest::write(1, map.map_line(0), 0, 0));
        let done = drain(&mut mc, PS_PER_US);
        assert_eq!(done.len(), 1);
        assert!(done[0].is_write);
        assert_eq!(mc.device().counters().writes, 1);
    }
}
