//! Deterministic observability: structured event sinks and cycle-domain
//! time-series probes.
//!
//! The simulator's aggregate reports (`Metrics`/`McStats`/`FaultStats`)
//! say *what* happened over a whole run; this crate records *when*. Two
//! complementary instruments share one design rule — everything is keyed
//! to simulated time, never host time, so output is bit-identical at any
//! worker-thread count:
//!
//! * **Events** ([`Event`] + [`EventSink`]): typed, timestamped records of
//!   the individual commands and state transitions the stack takes — ACT,
//!   REF, RFM (with the greedy selection it triggered), ARR, table
//!   evictions/invalidations, fault injection/detection/repair,
//!   scheduler-lane invalidations by cause, BLISS blacklist clears.
//!   Instrumented code is generic over the sink and guards every emission
//!   with `if S::ENABLED { ... }`; with the [`NullSink`] (the default) the
//!   constant is `false`, the branch is monomorphized away, and the hot
//!   path compiles to exactly the un-instrumented code. [`RingSink`] is
//!   the real collector: a bounded ring that keeps the most recent events,
//!   counts what it had to drop, and keeps *exact* per-kind totals even
//!   when the ring wraps (so count baselines are capacity-independent).
//!
//! * **Samples** ([`Sampler`] + [`SampleRow`]): a time series on a fixed
//!   cycle grid. Every `interval_cycles` memory cycles the probe snapshots
//!   tracker occupancy and counter span (via `MithrilTable::observe`),
//!   RFM/ACT/REF totals, per-bank ACT pressure, queue depth, LLC hit
//!   counters and the event core's candidate-cache counters. Rows are
//!   stamped with the *scheduled* grid cycle (`k * interval_cycles`), and
//!   a catch-up loop emits one row per missed grid point, so the grid —
//!   not the cadence of simulator progress — defines the series.
//!
//! This crate is dependency-free and sits below every other crate in the
//! workspace; `dram`, `core`, `trackers`, `faults`, `memctrl`, `sim` and
//! the runner all hook into it.
//!
//! # Example
//!
//! Collect events into a bounded ring and latencies into the
//! integer-only histogram every controller carries:
//!
//! ```
//! use mithril_obs::{Event, EventSink, LatencyHistogram, RingSink};
//!
//! let mut sink = RingSink::new(8);
//! for t in 0..20u64 {
//!     sink.emit(t * 1_000, Event::Act { bank: 0, row: t });
//! }
//! // The ring kept the newest 8 events but the per-kind totals are exact.
//! assert_eq!(sink.take_events().len(), 8);
//! assert_eq!(sink.counts()[Event::Act { bank: 0, row: 0 }.kind_index()], 20);
//!
//! let mut h = LatencyHistogram::new();
//! h.record(40_000);
//! h.record(90_000);
//! assert_eq!(h.count(), 2);
//! assert!(h.p99() <= h.max());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;

use json::Json;

/// Version stamp carried by every emitted JSON report (sweep, metrics-only
/// replay, fault campaign, paper report, obs summaries). Bump when a report
/// schema changes shape; diff-based gates validate it before comparing.
///
/// History: 1 = original report dialect; 2 = added `latency`/`per_core`
/// sections to metrics and `warnings` arrays to the obs summaries; 3 =
/// removed the f64 `avg_read_latency_ns` scalars and added a `latency`
/// section to every `per_channel` entry (histograms are the only latency
/// measure).
pub const FORMAT_VERSION: u64 = 3;

/// DDR5-4800 command-clock period in picoseconds (2400 MHz), the cycle
/// unit of the sample grid and of every event's `cycle` stamp.
/// `Ddr5Timing` expresses everything in picoseconds; this is the
/// conversion the cycle domain is defined by.
pub const DEFAULT_CYCLE_PS: u64 = 416;

/// Checks that a parsed report carries exactly this crate's
/// [`FORMAT_VERSION`] stamp. Shared by [`validate_format_version`] and
/// the `obs report` reader, so a schema drift fails with a version
/// message instead of a wall of diff or a nonsense table.
pub fn check_format_version(doc: &Json) -> Result<(), String> {
    match doc.get("format_version") {
        None => Err("report carries no format_version stamp".to_string()),
        Some(Json::Int(v)) if *v == FORMAT_VERSION => Ok(()),
        Some(v) => Err(format!(
            "format_version {} does not match this tool's {FORMAT_VERSION} \
             (regenerate the report or use a matching obs binary)",
            v.render()
        )),
    }
}

/// Parses `json` and checks its [`FORMAT_VERSION`] stamp (see
/// [`check_format_version`]). Used by tests and CI gates before
/// byte-diffing two reports.
pub fn validate_format_version(json: &str) -> Result<(), String> {
    check_format_version(&Json::parse(json)?)
}

// ------------------------------------------------------------ histograms

/// Linear sub-buckets per power-of-two range: values within one octave
/// land in one of `2^SUB_BITS` equal-width slots, bounding the relative
/// quantization error of any recorded value to `2^-SUB_BITS` (6.25%).
const SUB_BITS: u32 = 4;
const SUB: usize = 1 << SUB_BITS;

/// Total bucket count of [`LatencyHistogram`]: 16 exact unit buckets for
/// values below `SUB`, then 16 linear sub-buckets per octave up to the
/// top bit of `u64` (octaves 4..=63 → 60 × 16), inclusive.
pub const HISTOGRAM_BUCKETS: usize = SUB + (64 - SUB_BITS as usize) * SUB;

/// A deterministic HDR-style latency histogram: power-of-two buckets with
/// [`SUB`](HISTOGRAM_BUCKETS) linear sub-buckets each, plus exact
/// count/sum/min/max side counters.
///
/// Everything is integer arithmetic — recording, merging and percentile
/// extraction involve no floats — so merging per-channel histograms in
/// any order and extracting percentiles yields bit-identical results at
/// any worker-thread count. Percentiles return the **lower bound** of the
/// bucket containing the requested rank (relative error ≤ 1/16); the mean
/// is exact because the sum is kept exactly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyHistogram {
    /// Per-bucket counts; empty until the first record (all-zero shape).
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

/// Index of the bucket holding `v`. Values below `SUB` get exact unit
/// buckets; above, the top `SUB_BITS` bits after the leading one select
/// the linear sub-bucket within the value's octave. Monotone in `v` and
/// continuous at the linear/log boundary (`index(v) == v` for `v < 2·SUB`).
fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros();
        let sub = (v >> (msb - SUB_BITS)) as usize - SUB;
        SUB + (msb - SUB_BITS) as usize * SUB + sub
    }
}

/// Smallest value that maps to bucket `idx` — the value percentile
/// extraction reports for ranks landing in that bucket.
fn bucket_lower_bound(idx: usize) -> u64 {
    if idx < SUB {
        idx as u64
    } else {
        let k = (idx - SUB) >> SUB_BITS;
        let sub = (idx - SUB) & (SUB - 1);
        ((SUB + sub) as u64) << k
    }
}

impl LatencyHistogram {
    /// An empty histogram (no allocations until the first record).
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one value (a latency in picoseconds).
    pub fn record(&mut self, v: u64) {
        if self.counts.is_empty() {
            self.counts = vec![0; HISTOGRAM_BUCKETS];
        }
        self.counts[bucket_index(v)] += 1;
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of recorded values (saturating at `u64::MAX`).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.max
        }
    }

    /// Exact mean of recorded values (0.0 when empty). Unlike the
    /// percentiles this does not quantize: the sum is exact.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Folds `other` into `self` bucket-wise. Associative and commutative
    /// (all integer adds/min/max), so any merge tree over the same
    /// histograms produces the same result — the roll-up determinism the
    /// report writers rely on.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        if other.count == 0 {
            return;
        }
        if self.counts.is_empty() {
            self.counts = vec![0; HISTOGRAM_BUCKETS];
        }
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Lower bound of the bucket containing rank `ceil(count·num/den)`
    /// (1-based), i.e. the `num/den` quantile quantized down to its bucket
    /// boundary. Integer-only; 0 when empty.
    pub fn quantile_lower_bound(&self, num: u64, den: u64) -> u64 {
        assert!(den > 0 && num <= den, "quantile must be in [0, 1]");
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as u128 * num as u128).div_ceil(den as u128) as u64).max(1);
        let mut cum = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return bucket_lower_bound(idx);
            }
        }
        self.max
    }

    /// Median (bucket lower bound).
    pub fn p50(&self) -> u64 {
        self.quantile_lower_bound(50, 100)
    }

    /// 95th percentile (bucket lower bound).
    pub(crate) fn p95(&self) -> u64 {
        self.quantile_lower_bound(95, 100)
    }

    /// 99th percentile (bucket lower bound).
    pub fn p99(&self) -> u64 {
        self.quantile_lower_bound(99, 100)
    }

    /// 99.9th percentile (bucket lower bound).
    pub(crate) fn p999(&self) -> u64 {
        self.quantile_lower_bound(999, 1000)
    }

    /// The summary the reports embed: exact counters plus the standard
    /// percentile ladder, all in picoseconds. Field order is fixed and
    /// every value is an integer, so two equal histograms render to
    /// identical bytes.
    pub fn summary_tree(&self) -> Json {
        json_obj! {
            "count": self.count,
            "sum_ps": self.sum,
            "min_ps": self.min(),
            "max_ps": self.max(),
            "p50_ps": self.p50(),
            "p95_ps": self.p95(),
            "p99_ps": self.p99(),
            "p999_ps": self.p999(),
        }
    }
}

/// Grow-on-demand per-core attribution vector: `slot(core)` resizes with
/// `T::default()` so instrumented code never bounds-checks against a core
/// count it does not know. Index-wise merging keeps roll-ups
/// order-independent when each entry's fold is.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PerCore<T> {
    slots: Vec<T>,
}

impl<T> PerCore<T> {
    /// An empty attribution vector.
    pub fn new() -> Self {
        Self { slots: Vec::new() }
    }

    /// Number of slots materialized so far (highest touched core + 1).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if no core has been attributed anything yet.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The entry for `core`, if that slot was ever materialized.
    pub fn get(&self, core: usize) -> Option<&T> {
        self.slots.get(core)
    }

    /// Iterates `(core, entry)` pairs in core order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &T)> {
        self.slots.iter().enumerate()
    }
}

impl<T: Default> PerCore<T> {
    /// The entry for `core`, materializing default slots up to it.
    pub fn slot(&mut self, core: usize) -> &mut T {
        if core >= self.slots.len() {
            self.slots.resize_with(core + 1, T::default);
        }
        &mut self.slots[core]
    }

    /// Folds `other` into `self` index-wise with `fold`, growing to the
    /// longer of the two.
    pub fn merge_by(&mut self, other: &PerCore<T>, mut fold: impl FnMut(&mut T, &T)) {
        if other.slots.len() > self.slots.len() {
            self.slots.resize_with(other.slots.len(), T::default);
        }
        for (a, b) in self.slots.iter_mut().zip(other.slots.iter()) {
            fold(a, b);
        }
    }
}

// ---------------------------------------------------------------- events

/// Why the event-driven controller core invalidated a per-bank scheduler
/// lane (forcing a candidate recompute). Mirrors the invalidation rules
/// in ARCHITECTURE.md's event-core section.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneCause {
    /// A new request was enqueued onto the bank.
    Enqueue,
    /// A command executed on the bank (its own lane state changed).
    Execute,
    /// The bank became the target of a queued ARR.
    ArrTarget,
    /// A rank-segment auto-refresh touched the bank.
    RefSegment,
    /// The BLISS blacklist changed, reordering every lane's priorities.
    BlissChange,
    /// A throttle release changed or was reached: a QoS window rotation,
    /// a newly dry QoS token bucket or a mitigation release-generation
    /// change (all lanes, reported on bank 0), or the clock reaching a
    /// lane's next queued release (that lane).
    Throttle,
}

impl LaneCause {
    /// Stable lower-snake name used in JSONL output.
    pub fn name(self) -> &'static str {
        match self {
            LaneCause::Enqueue => "enqueue",
            LaneCause::Execute => "execute",
            LaneCause::ArrTarget => "arr_target",
            LaneCause::RefSegment => "ref_segment",
            LaneCause::BlissChange => "bliss_change",
            LaneCause::Throttle => "throttle",
        }
    }
}

/// One structured, typed observability event. Timestamps ride separately
/// (see [`EventSink::emit`]); payloads are the minimal coordinates needed
/// to interpret the transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// An ACT was issued to `bank` for `row`.
    Act {
        /// Flat bank index within the channel.
        bank: u32,
        /// Activated row.
        row: u64,
    },
    /// A rank auto-refresh covered `banks` banks of `rank`.
    Ref {
        /// Refreshed rank.
        rank: u32,
        /// Number of banks the refresh segment covered.
        banks: u32,
    },
    /// An RFM was issued: the engine greedily selected `aggressor`
    /// (absent when the table was empty or the tag was invalid) and
    /// refreshed `victims` rows; `skipped` marks adaptive-refresh skips.
    Rfm {
        /// Flat bank index within the channel.
        bank: u32,
        /// Greedily selected aggressor row, if any.
        aggressor: Option<u64>,
        /// Victim rows refreshed.
        victims: u32,
        /// `true` when adaptive refresh skipped the window.
        skipped: bool,
    },
    /// A Mithril+ MRR round found no pending refresh; the RFM cadence
    /// slot was elided entirely.
    RfmElided {
        /// Flat bank index within the channel.
        bank: u32,
    },
    /// An ARR (targeted victim refresh) retired for `bank`.
    Arr {
        /// Flat bank index within the channel.
        bank: u32,
        /// Victim rows refreshed.
        victims: u32,
    },
    /// A mitigation engine asked the controller to act (queued an ARR
    /// with `victims` victim rows) in response to an ACT.
    MitigationTrigger {
        /// Flat bank index within the channel.
        bank: u32,
        /// Victim rows the queued ARR will refresh.
        victims: u32,
    },
    /// The bank's tracker evicted `evictions` minimum entries since the
    /// previous ACT (Space-Saving replacement pressure).
    TableEvict {
        /// Flat bank index within the channel.
        bank: u32,
        /// Minimum-entry evictions since the previous ACT.
        evictions: u64,
    },
    /// The bank's tracker has `invalidations` tag-invalidated entries
    /// (CAM upsets) outstanding.
    TableInvalidate {
        /// Flat bank index within the channel.
        bank: u32,
        /// Outstanding tag-invalidated entries.
        invalidations: u64,
    },
    /// The fault plan landed `count` new faults on `bank`'s engine.
    FaultInject {
        /// Flat bank index within the channel.
        bank: u32,
        /// Faults injected by this draw.
        count: u64,
    },
    /// A scrub pass detected `count` new corruptions on `bank`.
    FaultDetect {
        /// Flat bank index within the channel.
        bank: u32,
        /// Newly detected corruptions.
        count: u64,
    },
    /// A scrub pass repaired `bank`'s tracker `count` times.
    FaultRepair {
        /// Flat bank index within the channel.
        bank: u32,
        /// Repairs performed.
        count: u64,
    },
    /// The event core invalidated `bank`'s scheduler lane.
    LaneInvalidate {
        /// Flat bank index within the channel.
        bank: u32,
        /// What dirtied the lane.
        cause: LaneCause,
    },
    /// BLISS cleared its blacklist (interval rollover or served-streak
    /// change forcing a full candidate refresh).
    BlissClear,
}

/// Number of event kinds (the length of [`KIND_NAMES`]).
pub const KINDS: usize = 13;

/// Stable lower-snake names of the event kinds, indexed by
/// [`Event::kind_index`]. Order is append-only: new kinds go at the end
/// so committed count baselines stay comparable.
pub const KIND_NAMES: [&str; KINDS] = [
    "act",
    "ref",
    "rfm",
    "rfm_elided",
    "arr",
    "mitigation_trigger",
    "table_evict",
    "table_invalidate",
    "fault_inject",
    "fault_detect",
    "fault_repair",
    "lane_invalidate",
    "bliss_clear",
];

impl Event {
    /// Index of this event's kind into [`KIND_NAMES`].
    pub fn kind_index(&self) -> usize {
        match self {
            Event::Act { .. } => 0,
            Event::Ref { .. } => 1,
            Event::Rfm { .. } => 2,
            Event::RfmElided { .. } => 3,
            Event::Arr { .. } => 4,
            Event::MitigationTrigger { .. } => 5,
            Event::TableEvict { .. } => 6,
            Event::TableInvalidate { .. } => 7,
            Event::FaultInject { .. } => 8,
            Event::FaultDetect { .. } => 9,
            Event::FaultRepair { .. } => 10,
            Event::LaneInvalidate { .. } => 11,
            Event::BlissClear => 12,
        }
    }

    /// Stable name of this event's kind.
    pub(crate) fn kind_name(&self) -> &'static str {
        KIND_NAMES[self.kind_index()]
    }

    /// Appends the kind-specific payload fields to the `line` object,
    /// e.g. `"bank":3,"row":55`. Nothing for payload-free kinds.
    pub fn payload(&self, line: &mut Json) {
        let members: Vec<(&str, Json)> = match *self {
            Event::Act { bank, row } => vec![("bank", bank.into()), ("row", row.into())],
            Event::Ref { rank, banks } => vec![("rank", rank.into()), ("banks", banks.into())],
            Event::Rfm {
                bank,
                aggressor,
                victims,
                skipped,
            } => vec![
                ("bank", bank.into()),
                ("aggressor", aggressor.into()),
                ("victims", victims.into()),
                ("skipped", skipped.into()),
            ],
            Event::RfmElided { bank } => vec![("bank", bank.into())],
            Event::Arr { bank, victims } | Event::MitigationTrigger { bank, victims } => {
                vec![("bank", bank.into()), ("victims", victims.into())]
            }
            Event::TableEvict { bank, evictions } => {
                vec![("bank", bank.into()), ("evictions", evictions.into())]
            }
            Event::TableInvalidate {
                bank,
                invalidations,
            } => vec![
                ("bank", bank.into()),
                ("invalidations", invalidations.into()),
            ],
            Event::FaultInject { bank, count }
            | Event::FaultDetect { bank, count }
            | Event::FaultRepair { bank, count } => {
                vec![("bank", bank.into()), ("count", count.into())]
            }
            Event::LaneInvalidate { bank, cause } => {
                vec![("bank", bank.into()), ("cause", cause.name().into())]
            }
            Event::BlissClear => vec![],
        };
        for (key, value) in members {
            line.push(key, value);
        }
    }
}

/// Where instrumented code sends its events.
///
/// The contract that makes observability free when unused: callers are
/// generic over `S: EventSink` and guard every emission (and any payload
/// construction) with `if S::ENABLED { ... }`. [`NullSink`] sets the
/// constant to `false`, so monomorphization deletes the branch and the
/// obs-off binary is instruction-identical to un-instrumented code.
pub trait EventSink {
    /// Compile-time switch: `false` means `emit` is unreachable and all
    /// guarded instrumentation folds away.
    const ENABLED: bool;

    /// Records `ev` at simulated time `at` (picoseconds).
    fn emit(&mut self, at: u64, ev: Event);
}

/// The disabled sink: observability compiled out.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl EventSink for NullSink {
    const ENABLED: bool = false;

    #[inline(always)]
    fn emit(&mut self, _at: u64, _ev: Event) {}
}

/// A bounded ring-buffer sink with drop accounting.
///
/// Keeps the most recent `capacity` events (oldest are overwritten) and
/// counts how many were dropped. Per-kind totals in [`counts`] are exact
/// over *all* emitted events, wrapped or not, so event-count baselines do
/// not depend on the ring capacity.
///
/// [`counts`]: RingSink::counts
#[derive(Debug, Clone)]
pub struct RingSink {
    buf: Vec<(u64, Event)>,
    capacity: usize,
    /// Index of the oldest retained event once the ring has wrapped.
    start: usize,
    dropped: u64,
    counts: [u64; KINDS],
}

impl RingSink {
    /// Creates a ring retaining at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be non-zero");
        Self {
            buf: Vec::with_capacity(capacity.min(4096)),
            capacity,
            start: 0,
            dropped: 0,
            counts: [0; KINDS],
        }
    }

    /// Events currently retained (≤ capacity).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Exact per-kind totals over everything ever emitted, indexed like
    /// [`KIND_NAMES`].
    pub fn counts(&self) -> &[u64; KINDS] {
        &self.counts
    }

    /// Total events ever emitted (retained + dropped).
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Retained `(at, event)` pairs, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = (u64, Event)> + '_ {
        self.buf[self.start..]
            .iter()
            .chain(self.buf[..self.start].iter())
            .copied()
    }

    /// Drains the ring into an ordered vector (oldest first), keeping the
    /// counts and drop totals.
    pub fn take_events(&mut self) -> Vec<(u64, Event)> {
        let events: Vec<(u64, Event)> = self.iter().collect();
        self.buf.clear();
        self.start = 0;
        events
    }
}

impl EventSink for RingSink {
    const ENABLED: bool = true;

    fn emit(&mut self, at: u64, ev: Event) {
        self.counts[ev.kind_index()] += 1;
        if self.buf.len() < self.capacity {
            self.buf.push((at, ev));
        } else {
            self.buf[self.start] = (at, ev);
            self.start += 1;
            if self.start == self.capacity {
                self.start = 0;
            }
            self.dropped += 1;
        }
    }
}

// ----------------------------------------------------------- observation

/// A point-in-time snapshot of a frequency-tracker structure, produced by
/// `MithrilTable::observe`. All O(1) reads: min/max come from the
/// Stream-Summary bucket-list pointers, the rest are stored counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrackerObservation {
    /// Occupied entries.
    pub len: u64,
    /// Total entries (`Nentry`).
    pub capacity: u64,
    /// Minimum counter value. Wrapping-counter tables (Mithril's `u16`)
    /// report *relative* values — min is the floor, i.e. `0`.
    pub min: u64,
    /// Maximum counter value (relative for wrapping tables, so
    /// `max - min` is the adaptive-refresh spread).
    pub max: u64,
    /// Cumulative minimum-entry evictions since construction.
    pub evictions: u64,
    /// Entries currently tag-invalidated (CAM upsets awaiting scrub).
    pub invalidations: u64,
}

impl TrackerObservation {
    /// Folds another bank's observation into an aggregate: sizes and
    /// cumulative counters add, the counter span widens.
    pub fn merge(&mut self, other: TrackerObservation) {
        self.len += other.len;
        self.capacity += other.capacity;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.evictions += other.evictions;
        self.invalidations += other.invalidations;
    }
}

// -------------------------------------------------------------- sampling

/// One row of the cycle-domain time series: per-channel cumulative
/// command counters, instantaneous queue/tracker state and LLC counters,
/// stamped with the grid cycle it was scheduled for.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SampleRow {
    /// Grid cycle (`k * interval_cycles`) this row samples.
    pub cycle: u64,
    /// Memory channel the row describes.
    pub channel: u32,
    /// Cumulative ACTs issued by the channel's controller.
    pub acts: u64,
    /// Cumulative rank auto-refreshes.
    pub refs: u64,
    /// Cumulative RFMs.
    pub rfms: u64,
    /// Cumulative Mithril+ RFM elisions.
    pub rfm_elisions: u64,
    /// Cumulative ARRs.
    pub arrs: u64,
    /// Requests waiting in the controller queue right now.
    pub queue_depth: u64,
    /// Aggregate tracker snapshot across the channel's banks.
    pub tracker: TrackerObservation,
    /// Cumulative event-core candidate-cache hits (scans that reused
    /// every cached lane candidate).
    pub cand_hits: u64,
    /// Cumulative event-core lane recomputes (cache invalidations
    /// consumed).
    pub cand_invalidations: u64,
    /// Cumulative LLC hits (system-wide; identical across channels of
    /// the same cycle).
    pub llc_hits: u64,
    /// Cumulative LLC misses (system-wide).
    pub llc_misses: u64,
    /// Cumulative ACTs per bank (pressure skew).
    pub bank_acts: Vec<u64>,
}

/// CSV header matching [`SampleRow::csv_line`].
pub(crate) const SERIES_CSV_HEADER: &str =
    "cycle,channel,acts,refs,rfms,rfm_elisions,arrs,queue_depth,\
     occupancy,capacity,ctr_min,ctr_max,evictions,invalidations,\
     cand_hits,cand_invalidations,llc_hits,llc_misses,bank_acts";

impl SampleRow {
    /// Renders the row as one CSV line (no trailing newline). The
    /// per-bank ACT vector is `|`-joined inside the final column.
    pub(crate) fn csv_line(&self) -> String {
        let banks: Vec<String> = self.bank_acts.iter().map(u64::to_string).collect();
        format!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            self.cycle,
            self.channel,
            self.acts,
            self.refs,
            self.rfms,
            self.rfm_elisions,
            self.arrs,
            self.queue_depth,
            self.tracker.len,
            self.tracker.capacity,
            self.tracker.min,
            self.tracker.max,
            self.tracker.evictions,
            self.tracker.invalidations,
            self.cand_hits,
            self.cand_invalidations,
            self.llc_hits,
            self.llc_misses,
            banks.join("|")
        )
    }
}

/// Snapshots probes on a fixed cycle grid.
///
/// The caller polls with the current simulated time; whenever one or more
/// grid deadlines have passed, the probe closure runs once per missed
/// deadline and each produced row is stamped with the *scheduled* grid
/// cycle. The grid therefore defines the series: two simulations that
/// reach the same states produce the same rows no matter how unevenly
/// their event loops advance time.
#[derive(Debug, Clone)]
pub struct Sampler {
    interval_cycles: u64,
    /// Next grid index to emit (grid cycle `next_k * interval_cycles`).
    next_k: u64,
    rows: Vec<SampleRow>,
}

impl Sampler {
    /// Creates a sampler on a grid of `interval_cycles` cycles of
    /// [`DEFAULT_CYCLE_PS`] picoseconds each. The zero-cycle row is
    /// skipped (the initial state is all zeros by construction).
    ///
    /// # Panics
    ///
    /// Panics if `interval_cycles` is zero.
    pub fn new(interval_cycles: u64) -> Self {
        assert!(interval_cycles > 0, "interval must be non-zero");
        Self {
            interval_cycles,
            next_k: 1,
            rows: Vec::new(),
        }
    }

    /// The sample grid spacing in cycles.
    pub fn interval_cycles(&self) -> u64 {
        self.interval_cycles
    }

    fn next_deadline_ps(&self) -> u64 {
        self.next_k
            .saturating_mul(self.interval_cycles)
            .saturating_mul(DEFAULT_CYCLE_PS)
    }

    /// Emits one row per grid deadline at or before `now_ps`. The probe
    /// receives the scheduled grid cycle and must stamp it into the row.
    pub fn poll(&mut self, now_ps: u64, probe: &mut dyn FnMut(u64) -> SampleRow) {
        while self.next_deadline_ps() <= now_ps {
            let cycle = self.next_k * self.interval_cycles;
            self.rows.push(probe(cycle));
            self.next_k += 1;
        }
    }

    /// Rows recorded so far, in grid order.
    pub fn rows(&self) -> &[SampleRow] {
        &self.rows
    }

    /// Drains the recorded rows, keeping the grid position so sampling
    /// continues where it left off.
    pub fn take_rows(&mut self) -> Vec<SampleRow> {
        std::mem::take(&mut self.rows)
    }
}

// --------------------------------------------------------------- capture

/// Everything observed on one memory channel over a run.
#[derive(Debug, Clone)]
pub struct ChannelCapture {
    /// The channel index.
    pub channel: u32,
    /// Retained `(at_ps, event)` pairs, oldest first.
    pub events: Vec<(u64, Event)>,
    /// Exact per-kind totals (capacity-independent).
    pub counts: [u64; KINDS],
    /// Events the ring had to overwrite.
    pub dropped: u64,
    /// The channel's time-series rows, grid order.
    pub rows: Vec<SampleRow>,
}

/// A full observability capture of one simulation: per-channel events and
/// time series plus the grid spacing (in cycles of [`DEFAULT_CYCLE_PS`]),
/// with deterministic renderers for each artifact the CLI writes.
#[derive(Debug, Clone)]
pub struct ObsCapture {
    /// Grid spacing in cycles.
    pub interval_cycles: u64,
    /// Per-channel captures, channel order.
    pub channels: Vec<ChannelCapture>,
}

impl ObsCapture {
    /// Exact per-kind totals across all channels.
    pub fn total_counts(&self) -> [u64; KINDS] {
        let mut totals = [0u64; KINDS];
        for ch in &self.channels {
            for (t, c) in totals.iter_mut().zip(ch.counts.iter()) {
                *t += c;
            }
        }
        totals
    }

    /// Total events emitted across all channels.
    pub(crate) fn total_events(&self) -> u64 {
        self.total_counts().iter().sum()
    }

    /// Total events dropped by the rings.
    pub fn total_dropped(&self) -> u64 {
        self.channels.iter().map(|c| c.dropped).sum()
    }

    /// Renders the retained events of all channels as JSONL, merged in
    /// `(t_ps, channel, emit order)` order. Each line carries the
    /// timestamp in picoseconds and in grid cycles.
    pub fn events_jsonl(&self) -> String {
        let mut merged: Vec<(u64, u32, usize, Event)> = Vec::new();
        for ch in &self.channels {
            for (seq, &(at, ev)) in ch.events.iter().enumerate() {
                merged.push((at, ch.channel, seq, ev));
            }
        }
        merged.sort_by_key(|&(at, channel, seq, _)| (at, channel, seq));
        let mut out = String::new();
        for (at, channel, _, ev) in merged {
            let mut line = json_obj! {
                "t_ps": at,
                "cycle": at / DEFAULT_CYCLE_PS,
                "channel": channel,
                "kind": ev.kind_name(),
            };
            ev.payload(&mut line);
            out.push_str(&line.render());
            out.push('\n');
        }
        out
    }

    /// Renders the merged time series as CSV, rows sorted by
    /// `(cycle, channel)`.
    pub fn series_csv(&self) -> String {
        let mut rows: Vec<&SampleRow> = self.channels.iter().flat_map(|c| c.rows.iter()).collect();
        rows.sort_by_key(|r| (r.cycle, r.channel));
        let mut out = String::from(SERIES_CSV_HEADER);
        out.push('\n');
        for row in rows {
            out.push_str(&row.csv_line());
            out.push('\n');
        }
        out
    }

    /// Ring-drop warnings, one string per channel whose ring overwrote
    /// events (payloads lost; exact counts were kept). Empty when nothing
    /// was dropped — the summaries surface these so a truncated capture
    /// is loud instead of a silently smaller `events.jsonl`.
    pub fn warnings(&self) -> Vec<String> {
        self.channels
            .iter()
            .filter(|c| c.dropped > 0)
            .map(|c| {
                format!(
                    "channel {} ring dropped {} events (payloads lost, counts exact)",
                    c.channel, c.dropped
                )
            })
            .collect()
    }

    /// Renders the capture summary: grid parameters, exact per-kind
    /// totals, drop accounting (plus a top-level `warnings` array when
    /// any ring dropped) and per-channel volumes.
    pub fn summary_json(&self) -> String {
        let per_channel = self.channels.iter().map(|c| {
            json_obj! {
                "channel": c.channel,
                "events": c.counts.iter().sum::<u64>(),
                "retained": c.events.len(),
                "dropped": c.dropped,
                "samples": c.rows.len(),
            }
        });
        json_obj! {
            "format_version": FORMAT_VERSION,
            "cycle_ps": DEFAULT_CYCLE_PS,
            "interval_cycles": self.interval_cycles,
            "events_total": self.total_events(),
            "events_dropped": self.total_dropped(),
            "warnings": self.warnings(),
            "samples": self.channels.iter().map(|c| c.rows.len()).sum::<usize>(),
            "counts": kind_counts_tree(&self.total_counts()),
            "per_channel": Json::arr(per_channel),
        }
        .render_report()
    }
}

/// Per-kind event counts as one object keyed by [`KIND_NAMES`] (zero
/// kinds included, so the shape is fixed).
pub fn kind_counts_tree(counts: &[u64; KINDS]) -> Json {
    Json::Obj(
        KIND_NAMES
            .iter()
            .zip(counts)
            .map(|(name, &n)| (name.to_string(), Json::Int(n)))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_is_disabled() {
        const { assert!(!NullSink::ENABLED) };
        // Emission through the trait is a no-op.
        let mut s = NullSink;
        s.emit(1, Event::BlissClear);
    }

    #[test]
    fn ring_keeps_newest_and_counts_exactly() {
        let mut ring = RingSink::new(3);
        for i in 0..5u64 {
            ring.emit(i, Event::Act { bank: 0, row: i });
        }
        ring.emit(5, Event::BlissClear);
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 3);
        assert_eq!(ring.counts()[0], 5); // all five ACTs counted
        assert_eq!(ring.counts()[KINDS - 1], 1);
        assert_eq!(ring.total(), 6);
        let kept: Vec<u64> = ring.iter().map(|(at, _)| at).collect();
        assert_eq!(kept, vec![3, 4, 5]);
        let drained = ring.take_events();
        assert_eq!(drained.len(), 3);
        assert!(ring.is_empty());
        assert_eq!(ring.total(), 6, "draining keeps the totals");
    }

    #[test]
    fn kind_names_cover_every_variant() {
        let all = [
            Event::Act { bank: 0, row: 0 },
            Event::Ref { rank: 0, banks: 0 },
            Event::Rfm {
                bank: 0,
                aggressor: None,
                victims: 0,
                skipped: false,
            },
            Event::RfmElided { bank: 0 },
            Event::Arr {
                bank: 0,
                victims: 0,
            },
            Event::MitigationTrigger {
                bank: 0,
                victims: 0,
            },
            Event::TableEvict {
                bank: 0,
                evictions: 0,
            },
            Event::TableInvalidate {
                bank: 0,
                invalidations: 0,
            },
            Event::FaultInject { bank: 0, count: 0 },
            Event::FaultDetect { bank: 0, count: 0 },
            Event::FaultRepair { bank: 0, count: 0 },
            Event::LaneInvalidate {
                bank: 0,
                cause: LaneCause::Enqueue,
            },
            Event::BlissClear,
        ];
        assert_eq!(all.len(), KINDS);
        for (i, ev) in all.iter().enumerate() {
            assert_eq!(ev.kind_index(), i);
            assert_eq!(ev.kind_name(), KIND_NAMES[i]);
        }
    }

    #[test]
    fn sampler_catches_up_on_grid_cycles() {
        let mut s = Sampler::new(10);
        let deadline = 10 * DEFAULT_CYCLE_PS;
        let mut probe = |cycle: u64| SampleRow {
            cycle,
            ..SampleRow::default()
        };
        s.poll(deadline - 1, &mut probe);
        assert!(s.rows().is_empty(), "before the first deadline");
        s.poll(deadline, &mut probe);
        assert_eq!(s.rows().len(), 1);
        // A big jump emits one row per missed grid point.
        s.poll(3 * deadline + deadline / 2, &mut probe);
        let cycles: Vec<u64> = s.rows().iter().map(|r| r.cycle).collect();
        assert_eq!(cycles, vec![10, 20, 30]);
    }

    #[test]
    fn capture_renderers_are_deterministic() {
        let capture = ObsCapture {
            interval_cycles: 10,
            channels: vec![
                ChannelCapture {
                    channel: 0,
                    events: vec![
                        (2 * DEFAULT_CYCLE_PS, Event::Act { bank: 1, row: 7 }),
                        (
                            4 * DEFAULT_CYCLE_PS,
                            Event::Rfm {
                                bank: 1,
                                aggressor: Some(7),
                                victims: 2,
                                skipped: false,
                            },
                        ),
                    ],
                    counts: {
                        let mut c = [0; KINDS];
                        c[0] = 1;
                        c[2] = 1;
                        c
                    },
                    dropped: 0,
                    rows: vec![SampleRow {
                        cycle: 10,
                        channel: 0,
                        acts: 1,
                        bank_acts: vec![0, 1],
                        ..SampleRow::default()
                    }],
                },
                ChannelCapture {
                    channel: 1,
                    events: vec![(2 * DEFAULT_CYCLE_PS, Event::BlissClear)],
                    counts: {
                        let mut c = [0; KINDS];
                        c[KINDS - 1] = 1;
                        c
                    },
                    dropped: 0,
                    rows: vec![],
                },
            ],
        };
        let jsonl = capture.events_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3);
        // Same timestamp: channel 0 sorts before channel 1.
        assert!(lines[0].contains("\"kind\":\"act\""), "{jsonl}");
        assert!(lines[1].contains("\"kind\":\"bliss_clear\""), "{jsonl}");
        assert!(lines[2].contains("\"aggressor\":7"), "{jsonl}");
        assert!(lines[0].contains("\"cycle\":2"), "{jsonl}");

        let csv = capture.series_csv();
        assert!(csv.starts_with("cycle,channel,"));
        assert!(csv.contains("10,0,1,"), "{csv}");
        assert!(csv.ends_with("0|1\n"), "{csv}");

        let summary = capture.summary_json();
        assert!(validate_format_version(&summary).is_ok());
        assert!(summary.contains("\"events_total\": 3"), "{summary}");
        assert_eq!(capture.total_events(), 3);
        assert_eq!(summary, capture.summary_json());
    }

    /// Pins the exact `events.jsonl` line of every kind: the envelope
    /// keys, then the kind's payload keys in order (`null` for an absent
    /// aggressor, nothing for `bliss_clear`).
    #[test]
    fn every_kind_renders_its_documented_line() {
        let events = [
            Event::Act { bank: 1, row: 2 },
            Event::Ref { rank: 1, banks: 8 },
            Event::Rfm {
                bank: 3,
                aggressor: None,
                victims: 0,
                skipped: true,
            },
            Event::RfmElided { bank: 4 },
            Event::Arr {
                bank: 5,
                victims: 2,
            },
            Event::MitigationTrigger {
                bank: 6,
                victims: 2,
            },
            Event::TableEvict {
                bank: 7,
                evictions: 3,
            },
            Event::TableInvalidate {
                bank: 8,
                invalidations: 1,
            },
            Event::FaultInject { bank: 9, count: 1 },
            Event::FaultDetect { bank: 9, count: 2 },
            Event::FaultRepair { bank: 9, count: 3 },
            Event::LaneInvalidate {
                bank: 2,
                cause: LaneCause::Throttle,
            },
            Event::BlissClear,
        ];
        // One event every 1.5 cycles, so the cycle stamps round down.
        let capture = ObsCapture {
            interval_cycles: 1,
            channels: vec![ChannelCapture {
                channel: 1,
                events: (0u64..)
                    .zip(events)
                    .map(|(i, e)| (DEFAULT_CYCLE_PS * 3 / 2 * i, e))
                    .collect(),
                counts: [1; KINDS],
                dropped: 0,
                rows: vec![],
            }],
        };
        let expected = r#"{"t_ps":0,"cycle":0,"channel":1,"kind":"act","bank":1,"row":2}
{"t_ps":624,"cycle":1,"channel":1,"kind":"ref","rank":1,"banks":8}
{"t_ps":1248,"cycle":3,"channel":1,"kind":"rfm","bank":3,"aggressor":null,"victims":0,"skipped":true}
{"t_ps":1872,"cycle":4,"channel":1,"kind":"rfm_elided","bank":4}
{"t_ps":2496,"cycle":6,"channel":1,"kind":"arr","bank":5,"victims":2}
{"t_ps":3120,"cycle":7,"channel":1,"kind":"mitigation_trigger","bank":6,"victims":2}
{"t_ps":3744,"cycle":9,"channel":1,"kind":"table_evict","bank":7,"evictions":3}
{"t_ps":4368,"cycle":10,"channel":1,"kind":"table_invalidate","bank":8,"invalidations":1}
{"t_ps":4992,"cycle":12,"channel":1,"kind":"fault_inject","bank":9,"count":1}
{"t_ps":5616,"cycle":13,"channel":1,"kind":"fault_detect","bank":9,"count":2}
{"t_ps":6240,"cycle":15,"channel":1,"kind":"fault_repair","bank":9,"count":3}
{"t_ps":6864,"cycle":16,"channel":1,"kind":"lane_invalidate","bank":2,"cause":"throttle"}
{"t_ps":7488,"cycle":18,"channel":1,"kind":"bliss_clear"}
"#;
        assert_eq!(capture.events_jsonl(), expected);
    }

    #[test]
    fn merge_widens_span_and_sums_counters() {
        let mut a = TrackerObservation {
            len: 3,
            capacity: 8,
            min: 0,
            max: 5,
            evictions: 2,
            invalidations: 1,
        };
        a.merge(TrackerObservation {
            len: 4,
            capacity: 8,
            min: 0,
            max: 9,
            evictions: 1,
            invalidations: 0,
        });
        assert_eq!(a.len, 7);
        assert_eq!(a.capacity, 16);
        assert_eq!(a.max, 9);
        assert_eq!(a.evictions, 3);
        assert_eq!(a.invalidations, 1);
    }

    #[test]
    fn format_version_validation() {
        let stamped = |v: &str| format!("{{\n  \"format_version\": {v},\n  \"base_seed\": 1\n}}\n");
        assert!(validate_format_version(&stamped(&FORMAT_VERSION.to_string())).is_ok());
        // A stamp that merely starts with the right digits is a different
        // version, not a match.
        let stretched = format!("{FORMAT_VERSION}0");
        assert!(validate_format_version(&stamped(&stretched)).is_err());
        assert!(validate_format_version(&stamped("999")).is_err());
        assert!(validate_format_version(&stamped(&format!("{FORMAT_VERSION}.5"))).is_err());
        assert!(validate_format_version(&stamped(&format!("\"{FORMAT_VERSION}\""))).is_err());
        assert!(validate_format_version("{}").is_err());
        assert!(validate_format_version("not json").is_err());
    }

    #[test]
    fn summary_surfaces_ring_drops_as_warnings() {
        let mut capture = ObsCapture {
            interval_cycles: 10,
            channels: vec![ChannelCapture {
                channel: 3,
                events: vec![],
                counts: [0; KINDS],
                dropped: 0,
                rows: vec![],
            }],
        };
        assert!(capture.warnings().is_empty());
        assert!(capture.summary_json().contains("\"warnings\": []"));
        capture.channels[0].dropped = 17;
        let summary = capture.summary_json();
        assert!(
            summary.contains("\"warnings\": [\"channel 3 ring dropped 17 events"),
            "{summary}"
        );
    }

    #[test]
    fn histogram_bucket_mapping_is_monotone_and_invertible() {
        // Exact below SUB, continuous at the boundary, monotone overall.
        for v in 0..64u64 {
            let idx = bucket_index(v);
            assert!(bucket_lower_bound(idx) <= v);
            if v < 2 * SUB as u64 {
                assert_eq!(idx, v as usize, "linear region must be exact");
            }
            assert!(bucket_index(v + 1) >= idx);
        }
        // Lower bound is the smallest member of its bucket.
        for idx in 0..HISTOGRAM_BUCKETS {
            let lb = bucket_lower_bound(idx);
            assert_eq!(bucket_index(lb), idx);
            if lb > 0 {
                assert!(bucket_index(lb - 1) < idx);
            }
        }
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn histogram_zero_latency_and_empty_percentiles() {
        let empty = LatencyHistogram::new();
        assert_eq!(empty.count(), 0);
        assert_eq!(empty.p50(), 0);
        assert_eq!(empty.p999(), 0);
        assert_eq!(empty.min(), 0);
        assert_eq!(empty.max(), 0);
        assert_eq!(empty.mean(), 0.0);

        let mut h = LatencyHistogram::new();
        for _ in 0..10 {
            h.record(0);
        }
        assert_eq!(h.count(), 10);
        assert_eq!(h.sum(), 0);
        assert_eq!((h.min(), h.max()), (0, 0));
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p999(), 0);
    }

    #[test]
    fn histogram_saturates_at_the_top_bucket() {
        let mut h = LatencyHistogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.sum(), u64::MAX, "sum saturates instead of wrapping");
        let top = bucket_lower_bound(HISTOGRAM_BUCKETS - 1);
        assert_eq!(h.p50(), top);
        assert_eq!(h.p999(), top);
    }

    #[test]
    fn histogram_percentiles_pick_bucket_lower_bounds() {
        let mut h = LatencyHistogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 5050);
        // Rank 50 is value 50; its bucket [50, 52) has lower bound 50.
        assert_eq!(h.p50(), 50);
        // Rank 95 is value 95, quantized down to its bucket start 92.
        assert_eq!(h.p95(), 92);
        assert_eq!(h.p99(), 96);
        assert!(h.p50() <= h.p95() && h.p95() <= h.p99() && h.p99() <= h.p999());
        assert!((h.mean() - 50.5).abs() < 1e-12, "mean is exact");
    }

    #[test]
    fn histogram_merge_is_associative_and_commutative() {
        let make = |vals: &[u64]| {
            let mut h = LatencyHistogram::new();
            for &v in vals {
                h.record(v);
            }
            h
        };
        let a = make(&[0, 1, 17, 900]);
        let b = make(&[5, 5, 123_456]);
        let c = make(&[u64::MAX, 3]);

        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc, "merge must be associative");

        let mut ba = b.clone();
        ba.merge(&a);
        let mut ab = a.clone();
        ab.merge(&b);
        assert_eq!(ab, ba, "merge must be commutative");

        let mut with_empty = a.clone();
        with_empty.merge(&LatencyHistogram::new());
        assert_eq!(with_empty, a, "empty is the identity");
        let mut from_empty = LatencyHistogram::new();
        from_empty.merge(&a);
        assert_eq!(from_empty.summary_tree(), a.summary_tree());
    }

    #[test]
    fn histogram_summary_json_is_integer_only() {
        let mut h = LatencyHistogram::new();
        h.record(40);
        h.record(60);
        let json = h.summary_tree().render();
        assert_eq!(
            json,
            "{\"count\":2,\"sum_ps\":100,\"min_ps\":40,\"max_ps\":60,\
             \"p50_ps\":40,\"p95_ps\":60,\"p99_ps\":60,\"p999_ps\":60}"
        );
        assert_eq!(
            LatencyHistogram::new().summary_tree().render(),
            "{\"count\":0,\"sum_ps\":0,\"min_ps\":0,\"max_ps\":0,\
             \"p50_ps\":0,\"p95_ps\":0,\"p99_ps\":0,\"p999_ps\":0}"
        );
    }

    #[test]
    fn per_core_grows_on_demand_and_merges_index_wise() {
        let mut pc: PerCore<u64> = PerCore::new();
        assert!(pc.is_empty());
        *pc.slot(2) += 5;
        assert_eq!(pc.len(), 3);
        assert_eq!(pc.get(0), Some(&0));
        assert_eq!(pc.get(2), Some(&5));
        assert_eq!(pc.get(3), None);

        let mut other: PerCore<u64> = PerCore::new();
        *other.slot(0) += 1;
        *other.slot(4) += 9;
        pc.merge_by(&other, |a, b| *a += b);
        assert_eq!(pc.len(), 5);
        let flat: Vec<u64> = pc.iter().map(|(_, v)| *v).collect();
        assert_eq!(flat, vec![1, 0, 5, 0, 9]);
    }
}
