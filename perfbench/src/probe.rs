//! Traced-run instrumentation. Everything here wraps the simulator's
//! public types from the outside: delegating `TraceSource` and
//! `DramMitigation` wrappers timed with `Instant`, replays of a recorded
//! op stream through the public `Llc`/`AddressMapping`, a standalone
//! `MemoryController` fed that stream's misses, and coarse spans.
//! None of it is built in end-to-end runs.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use mithril::{MithrilConfig, MithrilScheme};
use mithril_baselines::{BlockHammer, BlockHammerConfig};
use mithril_dram::{
    Ddr5Timing, DramDevice, DramMitigation, FaultStats, FaultSurface, Geometry, NoMitigation,
    RfmOutcome, RowId,
};
use mithril_memctrl::{
    AddressMapping, MappedAddr, McConfig, McMitigation, MemRequest, MemoryController,
    NoMcMitigation, QosPolicy, RfmMode,
};
use mithril_sim::{Llc, LlcAccess, LlcConfig};
use mithril_workloads::{Thread, ThreadSet, TraceOp, TraceSource};

/// A per-layer aggregate: calls and total nanoseconds. Atomic because
/// sweep items on different worker threads share one aggregate; the
/// counters publish no other data, so `Relaxed` suffices.
#[derive(Debug, Default)]
pub struct Agg {
    calls: AtomicU64,
    ns: AtomicU64,
}

impl Agg {
    /// Records one call of `ns` nanoseconds.
    pub fn add(&self, ns: u64) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Calls recorded.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Total nanoseconds recorded.
    pub fn ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }

    /// Mean nanoseconds per call (0 without calls).
    pub fn ns_per_call(&self) -> f64 {
        ratio(self.ns() as f64, self.calls() as f64)
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Nanoseconds since `t`.
pub fn elapsed_ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// The op stream a traced run consumed, in consumption order.
pub type OpLog = Arc<Mutex<Vec<(usize, TraceOp)>>>;

/// A delegating [`TraceSource`] that times every `next_op` and optionally
/// logs the ops it hands out.
struct TimedSource {
    inner: Box<dyn TraceSource + Send>,
    agg: Arc<Agg>,
    core: usize,
    log: Option<OpLog>,
}

impl TraceSource for TimedSource {
    fn next_op(&mut self) -> TraceOp {
        let t = Instant::now();
        let op = self.inner.next_op();
        self.agg.add(elapsed_ns(t));
        if let Some(log) = &self.log {
            log.lock()
                .expect("op log poisoned by a panicking thread")
                .push((self.core, op));
        }
        op
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Wraps every thread of `set` in a timed (and optionally logging) source.
pub fn wrap_threads(set: ThreadSet, agg: &Arc<Agg>, log: Option<&OpLog>) -> ThreadSet {
    let threads = set
        .threads
        .into_iter()
        .enumerate()
        .map(|(core, thread)| {
            let name = thread.name().to_string();
            let source = TimedSource {
                inner: thread.into_source(),
                agg: Arc::clone(agg),
                core,
                log: log.cloned(),
            };
            Thread::new(name, Box::new(source))
        })
        .collect();
    ThreadSet {
        name: set.name,
        threads,
    }
}

/// Aggregates of a [`TimedMitigation`].
#[derive(Debug, Default, Clone)]
pub struct MitigationAggs {
    /// `on_activate` calls.
    pub on_activate: Arc<Agg>,
    /// `on_rfm_into` calls.
    pub on_rfm: Arc<Agg>,
}

/// A delegating [`DramMitigation`] that times `on_activate` and
/// `on_rfm_into`.
pub struct TimedMitigation {
    inner: Box<dyn DramMitigation>,
    aggs: MitigationAggs,
}

impl TimedMitigation {
    /// Wraps `inner`, recording into `aggs`.
    pub fn new(inner: Box<dyn DramMitigation>, aggs: &MitigationAggs) -> Self {
        Self {
            inner,
            aggs: aggs.clone(),
        }
    }
}

impl DramMitigation for TimedMitigation {
    fn on_activate(&mut self, row: RowId) {
        let t = Instant::now();
        self.inner.on_activate(row);
        self.aggs.on_activate.add(elapsed_ns(t));
    }

    fn on_rfm_into(&mut self, out: &mut RfmOutcome) {
        let t = Instant::now();
        self.inner.on_rfm_into(out);
        self.aggs.on_rfm.add(elapsed_ns(t));
    }

    fn on_auto_refresh(&mut self, lo: RowId, hi: RowId) {
        self.inner.on_auto_refresh(lo, hi);
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
        self.inner.fault_stats()
    }

    fn observe_tracker(&self) -> Option<mithril_obs::TrackerObservation> {
        self.inner.observe_tracker()
    }
}

/// One coarse span of a traced run.
#[derive(Debug, Clone)]
struct Span {
    name: String,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder, written out when the run ends.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Spans {
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Spans {
    /// Opens a span and returns its id.
    pub fn open(&self, name: impl Into<String>, parent: Option<usize>) -> usize {
        let now = elapsed_ns(self.epoch);
        let mut spans = self.spans.lock().expect("span log poisoned");
        spans.push(Span {
            name: name.into(),
            parent,
            start_ns: now,
            end_ns: now,
        });
        spans.len() - 1
    }

    /// Closes span `id`.
    pub fn close(&self, id: usize) {
        let now = elapsed_ns(self.epoch);
        self.spans.lock().expect("span log poisoned")[id].end_ns = now;
    }

    /// Runs `f` inside a span.
    pub fn scope<R>(
        &self,
        name: impl Into<String>,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent);
        let r = f();
        self.close(id);
        r
    }

    /// The spans as a JSON array.
    pub fn json(&self) -> String {
        let spans = self.spans.lock().expect("span log poisoned");
        let rows: Vec<String> = spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                format!(
                    "    {{\"id\": {id}, \"name\": \"{}\", \"parent\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                    s.name,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.start_ns,
                    s.end_ns
                )
            })
            .collect();
        format!("[\n{}\n  ]", rows.join(",\n"))
    }
}

/// A memory request derived from a replayed op stream.
#[derive(Debug, Clone, Copy)]
pub struct Req {
    /// Issuing core.
    pub thread: usize,
    /// DRAM coordinates.
    pub addr: MappedAddr,
    /// Writeback rather than read.
    pub write: bool,
}

/// What replaying an op stream through the LLC and the mapping measured.
#[derive(Debug, Clone, Default)]
pub struct LlcProbe {
    /// LLC accesses (fills included in their time).
    pub accesses: u64,
    /// LLC misses.
    pub misses: u64,
    /// Host nanoseconds of all accesses and fills.
    pub access_ns: u64,
    /// `map_line` calls.
    pub maps: u64,
    /// Host nanoseconds of all `map_line` calls.
    pub map_ns: u64,
    /// The memory requests the replay produced (misses, uncacheable
    /// accesses and writebacks), in order.
    pub reqs: Vec<Req>,
}

impl LlcProbe {
    /// Folds another replay into this one.
    pub fn merge(&mut self, other: LlcProbe) {
        self.accesses += other.accesses;
        self.misses += other.misses;
        self.access_ns += other.access_ns;
        self.maps += other.maps;
        self.map_ns += other.map_ns;
        self.reqs.extend(other.reqs);
    }
}

/// Replays `ops` through a fresh LLC (fills land immediately) and maps
/// every resulting memory request. The two layers are timed as whole
/// loops, so no per-call timer skews them.
pub fn llc_replay(ops: &[(usize, TraceOp)], llc: LlcConfig, mapping: AddressMapping) -> LlcProbe {
    let mut cache = Llc::new(llc);
    let mut lines: Vec<(usize, u64, bool)> = Vec::with_capacity(ops.len() / 2);
    let (mut accesses, mut misses) = (0u64, 0u64);
    let t = Instant::now();
    for &(core, op) in ops {
        if op.uncacheable {
            lines.push((core, op.line_addr, false));
            continue;
        }
        accesses += 1;
        if cache.access(op.line_addr, op.is_write) == LlcAccess::Miss {
            misses += 1;
            lines.push((core, op.line_addr, false));
            if let Some(wb) = cache.fill(op.line_addr) {
                lines.push((core, wb, true));
            }
        }
    }
    let access_ns = elapsed_ns(t);
    let t = Instant::now();
    let reqs: Vec<Req> = lines
        .iter()
        .map(|&(thread, line, write)| Req {
            thread,
            addr: black_box(mapping.map_line(black_box(line))),
            write,
        })
        .collect();
    let map_ns = elapsed_ns(t);
    LlcProbe {
        accesses,
        misses,
        access_ns,
        maps: reqs.len() as u64,
        map_ns,
        reqs,
    }
}

/// The protection a standalone controller is built with.
#[derive(Debug, Clone, Copy)]
pub enum CtrlScheme {
    /// Mithril (DRAM-side engines, RFM interface).
    Mithril {
        /// RFM threshold.
        rfm_th: u64,
        /// Adaptive-refresh threshold.
        ad_th: Option<u64>,
        /// Mithril+ MRR elision.
        plus: bool,
    },
    /// BlockHammer (MC-side throttling).
    BlockHammer {
        /// Blacklist-threshold divisor.
        nbl_scale: u64,
    },
}

/// What a standalone controller run measured.
#[derive(Debug, Clone, Default)]
pub struct CtrlProbe {
    /// Host nanoseconds of enqueue + advance over the whole feed.
    pub ns: u64,
    /// DRAM commands issued.
    pub cmds: u64,
    /// ACTs issued.
    pub acts: u64,
    /// Mitigation aggregates (populated when built with `timed`).
    pub mitigation: MitigationAggs,
}

/// Requests queued per channel before the feed waits for completions.
const FEED_CAP: usize = 32;
/// Inter-arrival gap of fed requests, picoseconds.
const FEED_GAP_PS: u64 = 2_000;
/// Time step while waiting for the queue to drain, picoseconds.
const FEED_STEP_PS: u64 = 20_000;
/// Simulated-time guard: a feed still undrained after this is an error.
const FEED_LIMIT_PS: u64 = 60_000_000_000;

/// Builds one controller per channel of `geometry` under `scheme`/`qos`
/// and feeds each its share of `reqs` in a closed loop (at most
/// [`FEED_CAP`] queued). With `timed`, every DRAM-side engine is wrapped
/// in a [`TimedMitigation`].
pub fn controller_probe(
    geometry: Geometry,
    flip_th: u64,
    scheme: CtrlScheme,
    qos: QosPolicy,
    reqs: &[Req],
    timed: bool,
) -> Result<CtrlProbe, String> {
    let timing = Ddr5Timing::ddr5_4800();
    let view = geometry.channel_view();
    let aggs = MitigationAggs::default();
    let mut probe = CtrlProbe::default();
    for ch in 0..geometry.channels {
        let mut mc_cfg = McConfig {
            rfm_mode: RfmMode::Disabled,
            ..Default::default()
        };
        let mut mitigation: Box<dyn McMitigation> = Box::new(NoMcMitigation);
        let mithril_cfg = match scheme {
            CtrlScheme::Mithril {
                rfm_th,
                ad_th,
                plus,
            } => {
                mc_cfg.rfm_mode = if plus {
                    RfmMode::MrrElision
                } else {
                    RfmMode::Standard
                };
                mc_cfg.rfm_th = rfm_th;
                Some(
                    MithrilConfig::solve(flip_th, rfm_th, 1, ad_th, &timing)
                        .map_err(|e| e.to_string())?
                        .with_rows_per_bank(view.rows_per_bank),
                )
            }
            CtrlScheme::BlockHammer { nbl_scale } => {
                let cfg = BlockHammerConfig::for_flip_threshold(flip_th, &timing)
                    .with_nbl_scaled(nbl_scale);
                mitigation = Box::new(BlockHammer::new(cfg, view.banks_total()));
                None
            }
        };
        let device = DramDevice::new(view, timing, flip_th, 1, |_| {
            let engine: Box<dyn DramMitigation> = match mithril_cfg {
                Some(cfg) => Box::new(MithrilScheme::new(cfg)),
                None => Box::new(NoMitigation),
            };
            if timed {
                Box::new(TimedMitigation::new(engine, &aggs))
            } else {
                engine
            }
        });
        let mut mc = MemoryController::new(device, mc_cfg, mitigation);
        mc.set_qos(qos);

        let mut out = Vec::new();
        let mut now = 0u64;
        let mut step = |mc: &mut MemoryController, now: &mut u64| -> Result<(), String> {
            *now += FEED_STEP_PS;
            mc.advance_until_into(*now, &mut out);
            out.clear();
            if *now > FEED_LIMIT_PS {
                return Err(format!("standalone controller stuck on channel {ch}"));
            }
            Ok(())
        };
        let t = Instant::now();
        for (id, r) in reqs.iter().filter(|r| r.addr.channel.0 == ch).enumerate() {
            now += FEED_GAP_PS;
            let req = if r.write {
                MemRequest::write(id as u64, r.addr, r.thread, now)
            } else {
                MemRequest::read(id as u64, r.addr, r.thread, now)
            };
            mc.enqueue(req);
            while mc.pending() >= FEED_CAP {
                step(&mut mc, &mut now)?;
            }
        }
        while mc.pending() > 0 {
            step(&mut mc, &mut now)?;
        }
        probe.ns += elapsed_ns(t);
        let c = *mc.device().counters();
        let s = mc.stats();
        probe.acts += c.acts;
        probe.cmds += c.acts
            + c.pres
            + c.reads
            + c.writes
            + c.rfm_commands
            + c.mrr_commands
            + s.refs
            + s.arrs;
    }
    probe.mitigation = aggs;
    Ok(probe)
}
