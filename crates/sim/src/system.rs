//! Full-system composition and the simulation loop.

use crate::faults::{FaultConfig, FaultPlan, FaultyEngine};
use mithril::{MithrilConfig, MithrilScheme};
use mithril_baselines::{
    parfm_analysis, BlockHammer, BlockHammerConfig, Cbt, CbtConfig, Graphene, GrapheneConfig, Para,
    ParaConfig, Parfm, TwiCe, TwiCeConfig, ATTACKABLE_BANKS, FAILURE_TARGET,
};
use mithril_dram::{
    Ddr5Timing, DramDevice, DramMitigation, EnergyModel, FaultStats, Geometry, TimePs,
};
use mithril_fasthash::FastHashMap;
use mithril_memctrl::{
    AddressMapping, McConfig, McMitigation, MemRequest, MemoryController, NoMcMitigation,
    QosPolicy, RfmMode, SchedulerKind,
};
use mithril_obs::{ChannelCapture, EventSink, NullSink, ObsCapture, RingSink, SampleRow, Sampler};
use mithril_workloads::{ThreadSet, TraceOp};

use crate::core_model::CoreState;
use crate::llc::{Llc, LlcAccess, LlcConfig};
use crate::metrics::{ChannelMetrics, Metrics};

/// Which Row Hammer protection the system deploys.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scheme {
    /// Unprotected baseline.
    None,
    /// Mithril (DRAM-side, RFM). `plus` enables the Mithril+ MRR elision.
    Mithril {
        /// RFM threshold the MC is programmed with.
        rfm_th: u64,
        /// Adaptive-refresh threshold (Section V-A), `None` disables it.
        ad_th: Option<u64>,
        /// Mithril+ (Section V-B).
        plus: bool,
    },
    /// PARFM (DRAM-side probabilistic, RFM). The RFM threshold is solved
    /// from the Appendix-C failure analysis at construction.
    Parfm,
    /// PARA (MC-side probabilistic, ARR).
    Para,
    /// Graphene (MC-side deterministic, ARR).
    Graphene,
    /// TWiCe (buffer-chip deterministic, ARR).
    TwiCe,
    /// CBT (MC-side deterministic, grouped ARR).
    Cbt,
    /// BlockHammer (MC-side deterministic, throttling). `nbl_scale`
    /// divides the blacklist threshold for short simulation slices
    /// (see [`mithril_baselines::BlockHammerConfig::with_nbl_scaled`]);
    /// use 1 for paper-scale (full-tREFW) runs.
    BlockHammer {
        /// NBL divisor for short-slice calibration (1 = paper scale).
        nbl_scale: u64,
    },
}

impl Scheme {
    /// Scheme name for reporting.
    pub fn name(&self) -> &'static str {
        match self {
            Scheme::None => "none",
            Scheme::Mithril { plus: false, .. } => "mithril",
            Scheme::Mithril { plus: true, .. } => "mithril+",
            Scheme::Parfm => "parfm",
            Scheme::Para => "para",
            Scheme::Graphene => "graphene",
            Scheme::TwiCe => "twice",
            Scheme::Cbt => "cbt",
            Scheme::BlockHammer { .. } => "blockhammer",
        }
    }
}

/// The settable part of the paper's Table III system. The rest of the
/// machine is fixed: DDR5-4800 timing, the 3.6 GHz core model, blast
/// radius 1, and (in the controller) BLISS with minimalist-open pages.
#[derive(Debug, Clone, Copy)]
pub struct SystemConfig {
    /// Number of cores / hardware threads.
    pub cores: usize,
    /// The memory hierarchy: channels × ranks × banks. Each channel gets
    /// its own controller and DRAM device.
    pub geometry: Geometry,
    /// LLC parameters.
    pub llc: LlcConfig,
    /// Row Hammer threshold the oracle checks and schemes protect.
    pub flip_th: u64,
    /// The protection scheme.
    pub scheme: Scheme,
    /// RNG seed for probabilistic schemes.
    pub seed: u64,
    /// Soft-error injection into tracker state (`None` = fault-free; the
    /// fault-free path constructs no injection wrapper at all, so it
    /// stays zero-cost and byte-identical to pre-fault builds).
    pub faults: Option<FaultConfig>,
    /// Multi-tenant QoS throttling on every channel's controller
    /// (BreakHammer-style suspect scoring, see `mithril_memctrl::qos`).
    /// `Off` leaves the controllers entry-by-entry identical to pre-QoS
    /// builds, so QoS-off reports stay byte-identical.
    pub qos: QosPolicy,
}

impl SystemConfig {
    /// The paper's Table III system: 16 cores at 3.6 GHz, 16 MB LLC,
    /// 2 channels × 1 rank × 32 banks of DDR5-4800.
    pub fn table_iii() -> Self {
        Self {
            cores: 16,
            geometry: Geometry::table_iii_system(),
            llc: LlcConfig::default(),
            flip_th: 6_250,
            scheme: Scheme::None,
            seed: 1,
            faults: None,
            qos: QosPolicy::Off,
        }
    }

    /// The system-wide channel-interleaved address mapping used by this
    /// configuration.
    pub fn mapping(&self) -> AddressMapping {
        AddressMapping::new(self.geometry)
    }

    /// Number of memory channels (shorthand for `geometry.channels`).
    pub fn channels(&self) -> usize {
        self.geometry.channels
    }
}

/// The DRAM timing every channel runs (paper Table III: DDR5-4800).
const TIMING: Ddr5Timing = Ddr5Timing::ddr5_4800();

/// Rows on each side of an aggressor that its activations disturb.
const BLAST_RADIUS: u64 = 1;

/// Simulation epoch length: the quantum at which cores and memory
/// controllers synchronize. 500,000 ps is 500 ns.
const EPOCH_PS: TimePs = 500_000;

/// Decorrelates per-bank fault-plan seeds from every other use of the
/// scenario seed (scheme RNGs, workload generators).
const FAULT_SEED_SALT: u64 = 0xFA_171A_7ED0_5EED;

/// Observability capture parameters for [`System::with_obs`].
#[derive(Debug, Clone, Copy)]
pub struct ObsConfig {
    /// Events retained per channel ring (exact per-kind counts are kept
    /// regardless; the ring only bounds the JSONL tail).
    pub ring_capacity: usize,
    /// Time-series grid spacing, in memory cycles of
    /// [`DEFAULT_CYCLE_PS`](mithril_obs::DEFAULT_CYCLE_PS) picoseconds.
    pub interval_cycles: u64,
}

impl Default for ObsConfig {
    fn default() -> Self {
        Self {
            ring_capacity: 65_536,
            interval_cycles: 100_000,
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum ReqKind {
    /// Demand fill of a cacheable line; wakes merged waiters and fills LLC.
    Fill { line_addr: u64 },
    /// Uncacheable read from a thread.
    Uncacheable { thread: usize },
    /// LLC writeback; nothing waits on it.
    Writeback,
}

/// A scheme solved for one [`SystemConfig`]: the table size, RFM
/// threshold or tracker configuration every channel shares. Channels
/// differ only in their seeds, so [`System`] solves once and each
/// channel instantiates the plan.
#[derive(Clone, Copy)]
enum Plan {
    None,
    Mithril { cfg: MithrilConfig, plus: bool },
    Parfm { rfm_th: u64 },
    Para(ParaConfig),
    Graphene(GrapheneConfig),
    TwiCe(TwiCeConfig),
    Cbt(CbtConfig),
    BlockHammer(BlockHammerConfig),
}

impl Plan {
    /// Solves `config.scheme` for `config.flip_th` on one channel's
    /// geometry.
    fn solve(config: &SystemConfig) -> Result<Self, String> {
        let timing = &TIMING;
        let rows = config.geometry.channel_view().rows_per_bank;
        let flip = config.flip_th;
        Ok(match config.scheme {
            Scheme::None => Plan::None,
            Scheme::Mithril {
                rfm_th,
                ad_th,
                plus,
            } => Plan::Mithril {
                cfg: MithrilConfig::solve(flip, rfm_th, BLAST_RADIUS, ad_th, timing)
                    .map_err(|e| e.to_string())?
                    .with_rows_per_bank(rows),
                plus,
            },
            Scheme::Parfm => Plan::Parfm {
                rfm_th: parfm_analysis::max_rfm_th(flip, FAILURE_TARGET, ATTACKABLE_BANKS, timing)
                    .ok_or_else(|| format!("PARFM cannot protect FlipTH {flip}"))?,
            },
            Scheme::Para => {
                let budget = timing.act_budget_per_trefw();
                let mut cfg =
                    ParaConfig::for_failure_target(flip, FAILURE_TARGET, budget, ATTACKABLE_BANKS);
                cfg.rows_per_bank = rows;
                Plan::Para(cfg)
            }
            Scheme::Graphene => {
                let mut cfg = GrapheneConfig::for_flip_threshold(flip, timing);
                cfg.rows_per_bank = rows;
                Plan::Graphene(cfg)
            }
            Scheme::TwiCe => {
                let mut cfg = TwiCeConfig::for_flip_threshold(flip, timing);
                cfg.rows_per_bank = rows;
                Plan::TwiCe(cfg)
            }
            Scheme::Cbt => {
                let mut cfg = CbtConfig::for_flip_threshold(flip, timing);
                cfg.rows_per_bank = rows;
                Plan::Cbt(cfg)
            }
            Scheme::BlockHammer { nbl_scale } => Plan::BlockHammer(
                BlockHammerConfig::for_flip_threshold(flip, timing).with_nbl_scaled(nbl_scale),
            ),
        })
    }
}

/// The assembled system.
///
/// Generic over an observability sink `S` (default: the disabled
/// [`NullSink`], under which the obs plumbing compiles away). Build an
/// observed system with [`System::with_obs`].
pub struct System<S: EventSink = NullSink> {
    config: SystemConfig,
    cores: Vec<CoreState>,
    threads: ThreadSet,
    llc: Llc,
    mcs: Vec<MemoryController<S>>,
    /// Per-channel cycle-grid samplers; empty when obs is disabled.
    samplers: Vec<Sampler>,
    mapping: AddressMapping,
    /// In-flight request slab: the request id *is* the slot index, slots
    /// recycle through `free_req_ids`. Scheduling decisions never depend
    /// on id values (FR-FCFS keys on arrival/queue position), so reuse is
    /// invisible to the command stream.
    requests: Vec<Option<ReqKind>>,
    free_req_ids: Vec<u64>,
    /// line address → threads waiting for the fill.
    waiters: FastHashMap<u64, Vec<usize>>,
    /// Emptied waiter lists kept for reuse, so a missed line takes a
    /// recycled list instead of allocating a new one.
    spare_waiters: Vec<Vec<usize>>,
    /// Reusable completion buffer for [`MemoryController::advance_until_into`].
    completions_scratch: Vec<mithril_memctrl::Completion>,
}

impl System {
    /// Builds a system running `threads` under `config.scheme`.
    ///
    /// # Errors
    ///
    /// Returns an error string when the scheme cannot be configured for
    /// `config.flip_th` (e.g. an infeasible Mithril `(FlipTH, RFMTH)` pair).
    pub fn new(config: SystemConfig, threads: ThreadSet) -> Result<Self, String> {
        Self::assemble(
            config,
            threads,
            |_| NullSink,
            None,
            SchedulerKind::EventQueue,
        )
    }
}

impl System<RingSink> {
    /// Builds a system with structured event tracing and cycle-grid
    /// sampling enabled on every channel. Drain the capture with
    /// [`take_obs`](System::take_obs) after the run.
    pub fn with_obs(
        config: SystemConfig,
        threads: ThreadSet,
        obs: ObsConfig,
    ) -> Result<Self, String> {
        Self::assemble(
            config,
            threads,
            |_| RingSink::new(obs.ring_capacity),
            Some(obs),
            SchedulerKind::EventQueue,
        )
    }

    /// Drains everything observed so far — per-channel events, exact
    /// per-kind counts and time-series rows — leaving the sinks empty
    /// but still recording.
    pub fn take_obs(&mut self) -> ObsCapture {
        let interval_cycles = self
            .samplers
            .first()
            .map(Sampler::interval_cycles)
            .unwrap_or(1);
        let channels = self
            .mcs
            .iter_mut()
            .zip(self.samplers.iter_mut())
            .enumerate()
            .map(|(ch, (mc, sampler))| {
                let sink = mc.obs_mut();
                let counts = *sink.counts();
                let dropped = sink.dropped();
                ChannelCapture {
                    channel: ch as u32,
                    events: sink.take_events(),
                    counts,
                    dropped,
                    rows: sampler.take_rows(),
                }
            })
            .collect();
        ObsCapture {
            interval_cycles,
            channels,
        }
    }
}

impl<S: EventSink> System<S> {
    /// Shared construction path: builds every channel with a sink from
    /// `mk_sink` and (when `obs` is set) a cycle-grid sampler per channel.
    /// The public constructors pass the event-driven `scheduler`; this
    /// module's tests pass the naive rescan to cross-check it.
    fn assemble(
        config: SystemConfig,
        threads: ThreadSet,
        mk_sink: impl Fn(usize) -> S,
        obs: Option<ObsConfig>,
        scheduler: SchedulerKind,
    ) -> Result<Self, String> {
        assert_eq!(
            config.cores,
            threads.threads.len(),
            "thread count must match core count"
        );
        let plan = Plan::solve(&config)?;
        let mcs = config
            .geometry
            .channel_ids()
            .map(|ch| Self::build_channel(&config, &plan, ch.0, mk_sink(ch.0), scheduler))
            .collect();
        let samplers = match obs {
            Some(o) => (0..config.geometry.channels)
                .map(|_| Sampler::new(o.interval_cycles))
                .collect(),
            None => Vec::new(),
        };
        Ok(Self {
            cores: (0..config.cores)
                .map(|_| CoreState::new(u64::MAX))
                .collect(),
            threads,
            llc: Llc::new(config.llc),
            mcs,
            samplers,
            mapping: config.mapping(),
            requests: Vec::new(),
            free_req_ids: Vec::new(),
            waiters: FastHashMap::default(),
            spare_waiters: Vec::new(),
            completions_scratch: Vec::new(),
            config,
        })
    }

    /// Instantiates `plan` on one channel: a device, the per-bank
    /// engines and the controller, seeded per channel. Solves nothing.
    fn build_channel(
        config: &SystemConfig,
        plan: &Plan,
        channel: usize,
        obs: S,
        scheduler: SchedulerKind,
    ) -> MemoryController<S> {
        // Each controller owns one channel's worth of the hierarchy.
        let geometry = config.geometry.channel_view();
        let banks = geometry.banks_total();
        let seed = config.seed.wrapping_add(channel as u64 * 7919);
        let flip = config.flip_th;

        let mut mc_cfg = McConfig {
            rfm_mode: RfmMode::Disabled,
            ..Default::default()
        };
        let mut mitigation: Box<dyn McMitigation> = Box::new(NoMcMitigation);
        let engine_for: Box<dyn Fn(usize) -> Box<dyn DramMitigation>> = match *plan {
            Plan::None => Box::new(|_| Box::new(mithril_dram::NoMitigation)),
            Plan::Mithril { cfg, plus } => {
                mc_cfg.rfm_mode = if plus {
                    RfmMode::MrrElision
                } else {
                    RfmMode::Standard
                };
                mc_cfg.rfm_th = cfg.rfm_th;
                Box::new(move |_| Box::new(MithrilScheme::new(cfg)))
            }
            Plan::Parfm { rfm_th } => {
                mc_cfg.rfm_mode = RfmMode::Standard;
                mc_cfg.rfm_th = rfm_th;
                let rows = geometry.rows_per_bank;
                Box::new(move |bank| {
                    Box::new(Parfm::new(rfm_th, rows, seed.wrapping_add(bank as u64)))
                })
            }
            Plan::Para(cfg) => {
                mitigation = Box::new(Para::new(cfg, seed));
                Box::new(|_| Box::new(mithril_dram::NoMitigation))
            }
            Plan::Graphene(cfg) => {
                mitigation = Box::new(Graphene::new(cfg, banks));
                Box::new(|_| Box::new(mithril_dram::NoMitigation))
            }
            Plan::TwiCe(cfg) => {
                mitigation = Box::new(TwiCe::new(cfg, banks));
                Box::new(|_| Box::new(mithril_dram::NoMitigation))
            }
            Plan::Cbt(cfg) => {
                mitigation = Box::new(Cbt::new(cfg, banks));
                Box::new(|_| Box::new(mithril_dram::NoMitigation))
            }
            Plan::BlockHammer(cfg) => {
                mitigation = Box::new(BlockHammer::new(cfg, banks));
                Box::new(|_| Box::new(mithril_dram::NoMitigation))
            }
        };

        let device = match config.faults {
            None => DramDevice::new(geometry, TIMING, flip, BLAST_RADIUS, |bank| {
                engine_for(bank)
            }),
            Some(fault_cfg) => {
                // Each bank's fault stream is a pure function of
                // (scenario seed, channel, bank) through the workspace
                // seed contract, so campaigns are thread-count invariant.
                // The base is salted so fault draws never correlate with
                // the schemes' own RNG streams.
                let fault_base = config.seed ^ FAULT_SEED_SALT;
                DramDevice::new(geometry, TIMING, flip, BLAST_RADIUS, |bank| {
                    Box::new(FaultyEngine::new(
                        engine_for(bank),
                        fault_cfg,
                        FaultPlan::at_position(fault_base, channel as u64, bank as u64),
                    ))
                })
            }
        };
        let mut mc = MemoryController::with_obs(device, mc_cfg, mitigation, scheduler, obs);
        mc.set_qos(config.qos);
        mc
    }

    /// Runs until every core retires `insts_per_core` instructions or the
    /// simulated time reaches `max_time`, then reports metrics.
    pub fn run(&mut self, insts_per_core: u64, max_time: TimePs) -> Metrics {
        for c in &mut self.cores {
            c.budget = insts_per_core;
        }
        let mut epoch_end = EPOCH_PS;
        loop {
            // Interleave cores and memory inside the epoch until no more
            // progress is possible, then move the fence.
            loop {
                let issued = self.run_cores_until(epoch_end);
                let delivered = self.drain_memory(epoch_end);
                if !issued && !delivered {
                    break;
                }
            }
            self.poll_samplers(epoch_end);
            let all_done = self.cores.iter().all(|c| c.done());
            if all_done || epoch_end >= max_time {
                break;
            }
            epoch_end += EPOCH_PS;
        }
        self.collect_metrics()
    }

    /// Steps every unblocked, unfinished core up to `fence`. Returns true
    /// if any instruction retired or request issued.
    fn run_cores_until(&mut self, fence: TimePs) -> bool {
        let mut progressed = false;
        for t in 0..self.cores.len() {
            while !self.cores[t].blocked && !self.cores[t].done() && self.cores[t].clock < fence {
                let op = self.threads.threads[t].next_op();
                self.step_op(t, op);
                progressed = true;
            }
        }
        progressed
    }

    fn step_op(&mut self, t: usize, op: TraceOp) {
        self.cores[t].retire_batch(op.non_mem_insts);
        let now = self.cores[t].clock;
        if op.uncacheable {
            let id = self.alloc_request(ReqKind::Uncacheable { thread: t });
            let addr = self.mapping.map_line(op.line_addr);
            self.mcs[addr.channel.0].enqueue(MemRequest::read(id, addr, t, now));
            self.cores[t].register_miss();
            return;
        }
        match self.llc.access(op.line_addr, op.is_write) {
            LlcAccess::Hit => self.cores[t].account_hit(),
            LlcAccess::MergedMiss => {
                self.add_waiter(op.line_addr, t);
                self.cores[t].register_miss();
            }
            LlcAccess::Miss => {
                let id = self.alloc_request(ReqKind::Fill {
                    line_addr: op.line_addr,
                });
                let addr = self.mapping.map_line(op.line_addr);
                self.mcs[addr.channel.0].enqueue(MemRequest::read(id, addr, t, now));
                self.add_waiter(op.line_addr, t);
                self.cores[t].register_miss();
            }
        }
    }

    /// Queues thread `t` for the fill of `line_addr`, in arrival order.
    fn add_waiter(&mut self, line_addr: u64, t: usize) {
        let spare = &mut self.spare_waiters;
        self.waiters
            .entry(line_addr)
            .or_insert_with(|| spare.pop().unwrap_or_default())
            .push(t);
    }

    /// Advances all controllers to `fence` and delivers completions.
    /// Returns true if anything completed.
    fn drain_memory(&mut self, fence: TimePs) -> bool {
        let mut any = false;
        for ch in 0..self.mcs.len() {
            let mut completions = std::mem::take(&mut self.completions_scratch);
            completions.clear();
            self.mcs[ch].advance_until_into(fence, &mut completions);
            for &c in &completions {
                any = true;
                let kind = self
                    .requests
                    .get_mut(c.request_id as usize)
                    .and_then(Option::take);
                if kind.is_some() {
                    self.free_req_ids.push(c.request_id);
                }
                match kind {
                    Some(ReqKind::Fill { line_addr }) => {
                        if let Some(wb_line) = self.llc.fill(line_addr) {
                            let id = self.alloc_request(ReqKind::Writeback);
                            let addr = self.mapping.map_line(wb_line);
                            self.mcs[addr.channel.0]
                                .enqueue(MemRequest::write(id, addr, c.thread, c.at));
                        }
                        if let Some(mut ts) = self.waiters.remove(&line_addr) {
                            for &t in &ts {
                                self.cores[t].deliver(c.at);
                            }
                            ts.clear();
                            self.spare_waiters.push(ts);
                        }
                    }
                    Some(ReqKind::Uncacheable { thread }) => {
                        self.cores[thread].deliver(c.at);
                    }
                    Some(ReqKind::Writeback) | None => {}
                }
            }
            self.completions_scratch = completions;
        }
        any
    }

    /// Emits one time-series row per channel for every grid deadline the
    /// epoch fence passed. Rows are stamped with the *scheduled* grid
    /// cycle, so the series depends only on simulated time, never on how
    /// unevenly the event loops advanced. No-op when obs is disabled.
    fn poll_samplers(&mut self, now: TimePs) {
        if self.samplers.is_empty() {
            return;
        }
        let (llc_hits, llc_misses) = self.llc.counters();
        let mut samplers = std::mem::take(&mut self.samplers);
        for (ch, sampler) in samplers.iter_mut().enumerate() {
            let mc = &self.mcs[ch];
            let s = mc.stats();
            let c = mc.device().counters();
            let (cand_hits, cand_invalidations) = mc.obs_cand_counters();
            sampler.poll(now, &mut |cycle| SampleRow {
                cycle,
                channel: ch as u32,
                acts: c.acts,
                refs: s.refs,
                rfms: c.rfm_commands,
                rfm_elisions: s.rfm_elisions,
                arrs: s.arrs,
                queue_depth: mc.pending() as u64,
                tracker: mc.observe_trackers(),
                cand_hits,
                cand_invalidations,
                llc_hits,
                llc_misses,
                bank_acts: mc.obs_bank_acts().to_vec(),
            });
        }
        self.samplers = samplers;
    }

    fn alloc_request(&mut self, kind: ReqKind) -> u64 {
        match self.free_req_ids.pop() {
            Some(id) => {
                self.requests[id as usize] = Some(kind);
                id
            }
            None => {
                let id = self.requests.len() as u64;
                self.requests.push(Some(kind));
                id
            }
        }
    }

    fn collect_metrics(&self) -> Metrics {
        let model = EnergyModel::ddr5_default();
        let per_channel: Vec<ChannelMetrics> = self
            .mcs
            .iter()
            .enumerate()
            .map(|(ch, mc)| {
                let s = mc.stats();
                let counters = *mc.device().counters();
                ChannelMetrics {
                    channel: mithril_dram::ChannelId(ch),
                    row_hit_rate: mc.row_hit_rate(),
                    energy_pj: model.dynamic_energy_pj(&counters),
                    counters,
                    rfm_elisions: s.rfm_elisions,
                    arrs: s.arrs,
                    max_disturbance: mc.device().max_disturbance(),
                    flips: mc.device().total_flips(),
                    per_core: s.per_core.clone(),
                    qos: mc.qos_stats(),
                }
            })
            .collect();
        let mut metrics = Metrics::from_channels(
            self.threads.name.clone(),
            self.config.scheme.name().to_string(),
            self.cores.iter().map(|c| c.ipc()).collect(),
            self.cores.iter().map(|c| c.insts).sum(),
            self.cores.iter().map(|c| c.clock).max().unwrap_or(0),
            self.llc.miss_rate(),
            per_channel,
            &model,
        );
        metrics.faults = self.config.faults.map(|_| {
            let mut total = FaultStats::default();
            for mc in &self.mcs {
                let device = mc.device();
                for bank in 0..device.geometry().banks_total() {
                    if let Some(s) = device.engine(bank).fault_stats() {
                        total.add(&s);
                    }
                }
            }
            total
        });
        metrics
    }

    /// The configuration in use.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }
}

impl<S: EventSink> std::fmt::Debug for System<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("scheme", &self.config.scheme.name())
            .field("cores", &self.cores.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mithril_memctrl::CoreStats;
    use mithril_workloads::{attack_mix, mix_high};

    fn quick_config(scheme: Scheme) -> SystemConfig {
        let mut cfg = SystemConfig::table_iii();
        cfg.cores = 4;
        cfg.scheme = scheme;
        cfg
    }

    /// An unobserved system on the given controller `scheduler` core.
    fn on_core(cfg: SystemConfig, threads: ThreadSet, scheduler: SchedulerKind) -> System {
        System::assemble(cfg, threads, |_| NullSink, None, scheduler).unwrap()
    }

    fn run(scheme: Scheme, insts: u64) -> Metrics {
        let cfg = quick_config(scheme);
        let mut sys = System::new(cfg, mix_high(4, 11)).unwrap();
        sys.run(insts, u64::MAX)
    }

    #[test]
    fn baseline_makes_progress() {
        let m = run(Scheme::None, 20_000);
        assert!(m.total_insts >= 4 * 20_000);
        assert!(m.aggregate_ipc > 0.1, "aggregate IPC {}", m.aggregate_ipc);
        assert!(m.llc_miss_rate > 0.0);
        assert_eq!(m.counters.rfm_commands, 0);
    }

    #[test]
    fn mithril_run_issues_rfms_and_stays_safe() {
        let m = run(
            Scheme::Mithril {
                rfm_th: 64,
                ad_th: None,
                plus: false,
            },
            20_000,
        );
        assert!(m.counters.rfm_commands > 0, "no RFMs issued");
        assert_eq!(m.flips, 0);
        assert!(m.counters.preventive_rows > 0);
    }

    #[test]
    fn mithril_plus_elides_rfms_on_benign_workloads() {
        let m = run(
            Scheme::Mithril {
                rfm_th: 64,
                ad_th: Some(200),
                plus: true,
            },
            20_000,
        );
        assert!(m.rfm_elisions > 0, "MRR elision never triggered");
        assert_eq!(m.flips, 0);
    }

    #[test]
    fn mithril_overhead_is_small_but_nonzero() {
        let base = run(Scheme::None, 30_000);
        let mith = run(
            Scheme::Mithril {
                rfm_th: 64,
                ad_th: None,
                plus: false,
            },
            30_000,
        );
        let norm = mith.normalized_ipc(&base);
        assert!(norm > 0.85 && norm <= 1.02, "normalized IPC = {norm}");
    }

    #[test]
    fn graphene_run_issues_arrs_under_attack() {
        let mut cfg = quick_config(Scheme::Graphene);
        cfg.flip_th = 1_500;
        let threads = attack_mix("double", 4, cfg.mapping(), 3);
        let mut sys = System::new(cfg, threads).unwrap();
        let m = sys.run(40_000, u64::MAX);
        assert!(m.arrs > 0, "attack must trigger Graphene ARRs");
        assert_eq!(m.flips, 0);
    }

    #[test]
    fn unprotected_attack_reaches_high_disturbance() {
        let mut cfg = quick_config(Scheme::None);
        cfg.flip_th = 1_500;
        let threads = attack_mix("double", 4, cfg.mapping(), 3);
        let mut sys = System::new(cfg, threads).unwrap();
        let m = sys.run(60_000, u64::MAX);
        assert!(
            m.max_disturbance > 500,
            "attack too weak: max disturbance {}",
            m.max_disturbance
        );
    }

    #[test]
    fn blockhammer_throttles_attack() {
        let mut cfg = quick_config(Scheme::BlockHammer { nbl_scale: 6 });
        cfg.flip_th = 1_500;
        let threads = attack_mix("double", 4, cfg.mapping(), 3);
        let mut sys = System::new(cfg, threads).unwrap();
        // The paper-scale throttle delay is ~123 µs at FlipTH 1.5K; run
        // long enough (but time-capped) for delayed activations to issue.
        let m = sys.run(200_000, 300 * 1_000_000);
        assert!(m.throttled_acts > 0, "attack rows must get throttled");
        assert_eq!(m.flips, 0);
    }

    #[test]
    fn infeasible_mithril_config_is_an_error() {
        let cfg = {
            let mut c = quick_config(Scheme::Mithril {
                rfm_th: 1024,
                ad_th: None,
                plus: false,
            });
            c.flip_th = 1_500;
            c
        };
        assert!(System::new(cfg, mix_high(4, 1)).is_err());
    }

    #[test]
    fn fault_free_systems_report_no_fault_stats() {
        let cfg = quick_config(Scheme::Mithril {
            rfm_th: 64,
            ad_th: None,
            plus: false,
        });
        let mut sys = System::new(cfg, mix_high(4, 11)).unwrap();
        assert_eq!(sys.run(5_000, u64::MAX).faults, None);
    }

    #[test]
    fn faulty_runs_are_deterministic_and_counted() {
        let run = || {
            let mut cfg = quick_config(Scheme::Mithril {
                rfm_th: 64,
                ad_th: None,
                plus: false,
            });
            cfg.faults = Some(FaultConfig::mixed(50_000));
            let mut sys = System::new(cfg, mix_high(4, 11)).unwrap();
            let m = sys.run(20_000, u64::MAX);
            let faults = m.faults.unwrap();
            (m, faults)
        };
        let (ma, sa) = run();
        let (mb, sb) = run();
        assert_eq!(sa, sb);
        assert!(sa.injected() > 0, "5% fault rate must land: {sa:?}");
        assert!(sa.scrubs > 0);
        assert_eq!(ma.counters.acts, mb.counters.acts);
        assert_eq!(ma.sim_time_ps, mb.sim_time_ps);
        assert_eq!(ma.max_disturbance, mb.max_disturbance);
    }

    /// End-to-end decision identity: a full System run must produce
    /// identical metrics under either scheduler core, on 1- and 2-channel
    /// geometries and across scheme styles (none, RFM, ARR, throttling).
    /// The 20-core case has BLISS blacklist threads 16 and up, beyond the
    /// paper's 16 cores.
    #[test]
    fn scheduler_cores_agree_end_to_end() {
        let schemes = [
            Scheme::None,
            Scheme::Mithril {
                rfm_th: 64,
                ad_th: None,
                plus: false,
            },
            Scheme::Para,
            Scheme::BlockHammer { nbl_scale: 6 },
        ];
        for (channels, cores) in [(1usize, 4usize), (2, 4), (2, 20)] {
            for scheme in schemes {
                let run = |scheduler: SchedulerKind| {
                    let mut cfg = quick_config(scheme);
                    cfg.geometry.channels = channels;
                    cfg.cores = cores;
                    on_core(cfg, mix_high(cores, 11), scheduler).run(8_000, u64::MAX)
                };
                let ev = run(SchedulerKind::EventQueue);
                let na = run(SchedulerKind::NaiveRescan);
                let tag = format!("{}ch/{}c/{}", channels, cores, scheme.name());
                assert_eq!(ev.total_insts, na.total_insts, "insts diverge ({tag})");
                assert_eq!(ev.sim_time_ps, na.sim_time_ps, "time diverges ({tag})");
                assert_eq!(ev.counters, na.counters, "counters diverge ({tag})");
                assert_eq!(ev.arrs, na.arrs, "arrs diverge ({tag})");
                assert_eq!(
                    ev.throttled_acts, na.throttled_acts,
                    "throttles diverge ({tag})"
                );
                assert_eq!(
                    ev.max_disturbance, na.max_disturbance,
                    "disturbance diverges ({tag})"
                );
                assert_eq!(ev.aggregate_ipc, na.aggregate_ipc, "IPC diverges ({tag})");
            }
        }
    }

    /// Decision identity must also hold with the QoS layer live: both
    /// cores see the same suspect elections and token-bucket deferrals
    /// (the event core caches the absolute window-boundary release in
    /// each lane and recomputes on rotations and newly dry buckets).
    #[test]
    fn scheduler_cores_agree_with_qos_throttling() {
        use mithril_memctrl::QosConfig;
        let run = |scheduler: SchedulerKind| {
            let mut cfg = quick_config(Scheme::Mithril {
                rfm_th: 32,
                ad_th: None,
                plus: false,
            });
            cfg.flip_th = 1_500;
            cfg.qos = QosPolicy::Throttle(QosConfig::default());
            let threads = attack_mix("multi", 4, cfg.mapping(), 3);
            on_core(cfg, threads, scheduler).run(20_000, u64::MAX)
        };
        let ev = run(SchedulerKind::EventQueue);
        let na = run(SchedulerKind::NaiveRescan);
        assert_eq!(ev.total_insts, na.total_insts);
        assert_eq!(ev.sim_time_ps, na.sim_time_ps);
        assert_eq!(ev.counters, na.counters);
        assert_eq!(ev.throttled_acts, na.throttled_acts);
        assert_eq!(ev.max_disturbance, na.max_disturbance);
        let (eq, nq) = (ev.qos.unwrap(), na.qos.unwrap());
        assert_eq!(eq, nq, "QoS bookkeeping diverges between cores");
        assert!(eq.windows > 0);
    }

    /// A four-core mix-high Mithril run behind a 64 KiB, 4-way LLC on the
    /// controller `scheduler` core. Mix-high's RandomAccess thread stores
    /// 30% of the time, and a cache this small evicts its dirty lines
    /// within the run, so the controllers serve writebacks.
    fn writeback_run(scheduler: SchedulerKind) -> Metrics {
        let mut cfg = quick_config(Scheme::Mithril {
            rfm_th: 64,
            ad_th: None,
            plus: false,
        });
        cfg.llc = LlcConfig {
            size_bytes: 64 << 10,
            ways: 4,
        };
        on_core(cfg, mix_high(4, 11), scheduler).run(20_000, u64::MAX)
    }

    /// Both scheduler cores make the same decisions with writebacks in
    /// flight.
    #[test]
    fn scheduler_cores_agree_with_writebacks() {
        let ev = writeback_run(SchedulerKind::EventQueue);
        let na = writeback_run(SchedulerKind::NaiveRescan);
        assert!(ev.counters.writes > 0, "no writeback reached the device");
        assert_eq!(ev.total_insts, na.total_insts);
        assert_eq!(ev.sim_time_ps, na.sim_time_ps);
        assert_eq!(ev.counters, na.counters);
        assert_eq!(ev.read_latency, na.read_latency);
        assert_eq!(ev.write_latency, na.write_latency);
        assert_eq!(ev.max_disturbance, na.max_disturbance);
        assert_eq!(ev.aggregate_ipc, na.aggregate_ipc);
    }

    /// Served writebacks are recorded once, by their issuing core: per
    /// channel, the per-core write histograms count the device ledger's
    /// writes, and the run's write total is their fold.
    #[test]
    fn per_core_write_records_match_device_ledger() {
        let m = writeback_run(SchedulerKind::EventQueue);
        assert_eq!(m.per_channel.len(), 2);
        for ch in &m.per_channel {
            let total = CoreStats::total(&ch.per_core);
            let writes = total.write_latency.count();
            assert!(writes > 0, "channel {} served no writes", ch.channel.0);
            assert_eq!(writes, ch.counters.writes, "channel {}", ch.channel.0);
            assert_eq!(total.read_latency.count(), ch.counters.reads);
        }
        assert_eq!(m.write_latency, CoreStats::total(&m.per_core).write_latency);
    }

    /// The issuing cores' records are each channel's only record of
    /// served requests: per channel, their histogram counts sum to the
    /// device ledger, and the run's totals are their fold. (A run this
    /// short evicts no dirty line from the 16 MiB LLC, so its write
    /// counts are 0; `per_core_write_records_match_device_ledger` serves
    /// writes.)
    #[test]
    fn per_core_records_match_device_ledger() {
        let m = run(
            Scheme::Mithril {
                rfm_th: 64,
                ad_th: None,
                plus: false,
            },
            20_000,
        );
        assert_eq!(m.per_channel.len(), 2);
        for ch in &m.per_channel {
            let total = CoreStats::total(&ch.per_core);
            let (reads, writes) = (total.read_latency.count(), total.write_latency.count());
            assert!(reads > 0, "channel {} served no reads", ch.channel.0);
            assert_eq!(reads, ch.counters.reads, "channel {}", ch.channel.0);
            assert_eq!(writes, ch.counters.writes, "channel {}", ch.channel.0);
        }
        let total = CoreStats::total(&m.per_core);
        assert_eq!(m.read_latency, total.read_latency);
        assert_eq!(m.write_latency, total.write_latency);
        assert_eq!(m.throttled_acts, total.throttled_acts);
    }

    #[test]
    fn qos_off_reports_no_qos_section() {
        let m = run(Scheme::None, 5_000);
        assert!(m.qos.is_none());
        assert!(m.per_channel.iter().all(|c| c.qos.is_none()));
    }

    #[test]
    fn deterministic_across_identical_runs() {
        let a = run(
            Scheme::Mithril {
                rfm_th: 64,
                ad_th: None,
                plus: false,
            },
            10_000,
        );
        let b = run(
            Scheme::Mithril {
                rfm_th: 64,
                ad_th: None,
                plus: false,
            },
            10_000,
        );
        assert_eq!(a.total_insts, b.total_insts);
        assert_eq!(a.sim_time_ps, b.sim_time_ps);
        assert_eq!(a.counters.acts, b.counters.acts);
    }
}
