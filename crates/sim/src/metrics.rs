//! End-of-run metrics, aggregated hierarchically: per-channel results roll
//! up into the system totals.

use mithril_dram::{ChannelId, EnergyCounters, EnergyModel, FaultStats, TimePs};
use mithril_memctrl::{CoreStats, QosStats};
use mithril_obs::{LatencyHistogram, PerCore};

/// One memory channel's share of a run's results.
///
/// A [`Metrics`] carries one of these per channel; the system-level fields
/// of `Metrics` are exactly the merge of its channels, so experiments can
/// attribute overheads (RFM stalls, preventive-refresh energy, disturbance)
/// to the channel that incurred them — the cross-channel interference
/// scenarios depend on this.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelMetrics {
    /// The channel this breakdown belongs to.
    pub channel: ChannelId,
    /// Row-buffer hit rate over column commands.
    pub row_hit_rate: f64,
    /// DRAM operation counters of this channel's device: the one count
    /// of its ACTs, reads, writes, RFMs and MRRs.
    pub counters: EnergyCounters,
    /// Dynamic DRAM energy of this channel, picojoules.
    pub energy_pj: f64,
    /// RFMs elided via MRR (Mithril+).
    pub rfm_elisions: u64,
    /// ARR commands issued (MC-side schemes).
    pub arrs: u64,
    /// Worst victim disturbance observed on this channel.
    pub max_disturbance: u64,
    /// Bit flips detected on this channel.
    pub flips: usize,
    /// Per-issuing-core attribution of this channel's activity: its one
    /// record of request latencies, row hits and throttled ACTs (their
    /// totals are the fold [`CoreStats::total`]).
    pub per_core: PerCore<CoreStats>,
    /// QoS-layer outcome of this channel — `Some` exactly when the run
    /// had a [`mithril_memctrl::QosPolicy`] other than `Off`, so QoS-off
    /// reports stay byte-identical (the fault-stats pattern).
    pub qos: Option<QosStats>,
}

/// Results of one system simulation run.
#[derive(Debug, Clone)]
pub struct Metrics {
    /// Workload-set name.
    pub workload: String,
    /// Scheme name.
    pub scheme: String,
    /// Per-core IPC.
    pub per_core_ipc: Vec<f64>,
    /// Sum of per-core IPCs — the paper's aggregate-IPC metric.
    pub aggregate_ipc: f64,
    /// Total instructions retired across cores.
    pub total_insts: u64,
    /// Simulated wall time (max core clock).
    pub sim_time_ps: TimePs,
    /// LLC miss rate.
    pub llc_miss_rate: f64,
    /// Per-channel breakdown; system fields below are its roll-up.
    pub per_channel: Vec<ChannelMetrics>,
    /// Merged DRAM operation counters across channels.
    pub counters: EnergyCounters,
    /// Total dynamic DRAM energy in picojoules.
    pub energy_pj: f64,
    /// RFM commands issued: `counters.rfm_commands`, kept as a field for
    /// callers that read it by name.
    pub rfms: u64,
    /// RFMs elided via MRR (Mithril+).
    pub rfm_elisions: u64,
    /// ARR commands issued (MC-side schemes).
    pub arrs: u64,
    /// ACTs delayed by throttling: the fold of `per_core`.
    pub throttled_acts: u64,
    /// Worst victim disturbance observed by the oracle.
    pub max_disturbance: u64,
    /// Bit flips detected (must be 0 for any deterministic scheme).
    pub flips: usize,
    /// System-wide demand-read latency distribution: the bucket-wise
    /// fold of `per_core` (picoseconds).
    pub read_latency: LatencyHistogram,
    /// System-wide writeback latency distribution: the fold of
    /// `per_core` (picoseconds).
    pub write_latency: LatencyHistogram,
    /// Per-core attribution merged index-wise across channels — acts,
    /// row hits, throttled ACTs, RFM/mitigation triggers and the read and
    /// write latency histograms of each issuing core.
    pub per_core: PerCore<CoreStats>,
    /// QoS-layer roll-up (suspect windows, token-bucket deferrals and
    /// final scores per thread), merged additively across channels.
    /// `None` when QoS is off, keeping those reports byte-identical.
    pub qos: Option<QosStats>,
    /// Fault-injection counters summed over every bank engine: `Some`
    /// exactly when the run had `config.faults` set. Reports render them
    /// next to the metrics, never inside the metrics object, so
    /// fault-free reports stay byte-identical to pre-fault builds.
    pub faults: Option<FaultStats>,
}

impl Metrics {
    /// Builds the system-level roll-up from per-channel results plus the
    /// core/LLC-side observations that have no channel dimension. The
    /// fault counters start at `None`; the system fills them in.
    #[allow(clippy::too_many_arguments)]
    pub fn from_channels(
        workload: String,
        scheme: String,
        per_core_ipc: Vec<f64>,
        total_insts: u64,
        sim_time_ps: TimePs,
        llc_miss_rate: f64,
        per_channel: Vec<ChannelMetrics>,
        model: &EnergyModel,
    ) -> Self {
        let aggregate_ipc = per_core_ipc.iter().sum();
        let mut counters = EnergyCounters::default();
        let mut rfm_elisions = 0;
        let mut arrs = 0;
        let mut max_disturbance = 0;
        let mut flips = 0;
        let mut per_core: PerCore<CoreStats> = PerCore::new();
        let mut qos: Option<QosStats> = None;
        for ch in &per_channel {
            counters = counters.merged(&ch.counters);
            rfm_elisions += ch.rfm_elisions;
            arrs += ch.arrs;
            max_disturbance = max_disturbance.max(ch.max_disturbance);
            flips += ch.flips;
            per_core.merge_by(&ch.per_core, CoreStats::merge);
            if let Some(chq) = &ch.qos {
                qos.get_or_insert_with(QosStats::default).merge(chq);
            }
        }
        let total = CoreStats::total(&per_core);
        Metrics {
            workload,
            scheme,
            aggregate_ipc,
            per_core_ipc,
            total_insts,
            sim_time_ps,
            llc_miss_rate,
            energy_pj: model.dynamic_energy_pj(&counters),
            rfms: counters.rfm_commands,
            counters,
            per_channel,
            rfm_elisions,
            arrs,
            throttled_acts: total.throttled_acts,
            max_disturbance,
            flips,
            read_latency: total.read_latency,
            write_latency: total.write_latency,
            per_core,
            qos,
            faults: None,
        }
    }

    /// This run's aggregate IPC normalized against a baseline run
    /// (1.0 = no slowdown), the paper's headline performance metric.
    pub fn normalized_ipc(&self, baseline: &Metrics) -> f64 {
        if baseline.aggregate_ipc == 0.0 {
            return 0.0;
        }
        self.aggregate_ipc / baseline.aggregate_ipc
    }

    /// Relative dynamic energy against a baseline run (1.0 = no overhead).
    pub fn relative_energy(&self, baseline: &Metrics) -> f64 {
        if baseline.energy_pj == 0.0 {
            return 0.0;
        }
        self.energy_pj / baseline.energy_pj
    }
}

/// Geometric mean of a slice of positive values.
///
/// # Example
///
/// ```
/// use mithril_sim::Metrics;
/// let g = mithril_sim::geomean(&[1.0, 4.0]);
/// assert!((g - 2.0).abs() < 1e-12);
/// # let _ = g;
/// ```
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = xs.iter().map(|x| x.max(1e-300).ln()).sum();
    (log_sum / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn channel(ch: usize, acts: u64) -> ChannelMetrics {
        let counters = EnergyCounters {
            acts,
            pres: acts,
            rfm_commands: acts / 10,
            ..Default::default()
        };
        ChannelMetrics {
            channel: ChannelId(ch),
            row_hit_rate: 0.5,
            counters,
            energy_pj: EnergyModel::ddr5_default().dynamic_energy_pj(&counters),
            rfm_elisions: 0,
            arrs: 1,
            max_disturbance: acts,
            flips: 0,
            per_core: PerCore::new(),
            qos: None,
        }
    }

    fn metrics(ipc: f64, acts: u64) -> Metrics {
        Metrics::from_channels(
            "w".into(),
            "s".into(),
            vec![ipc],
            100,
            1000,
            0.1,
            vec![channel(0, acts), channel(1, acts / 2)],
            &EnergyModel::ddr5_default(),
        )
    }

    #[test]
    fn rollup_merges_channels() {
        let m = metrics(10.0, 100);
        assert_eq!(m.per_channel.len(), 2);
        assert_eq!(m.counters.acts, 150);
        assert_eq!(m.counters.rfm_commands, 10 + 5);
        assert_eq!(m.rfms, m.counters.rfm_commands);
        assert_eq!(m.arrs, 2);
        assert_eq!(m.max_disturbance, 100);
        let sum: f64 = m.per_channel.iter().map(|c| c.energy_pj).sum();
        assert!((m.energy_pj - sum).abs() < 1e-6);
    }

    #[test]
    fn normalized_ipc_vs_baseline() {
        let base = metrics(10.0, 100);
        let run = metrics(9.5, 104);
        assert!((run.normalized_ipc(&base) - 0.95).abs() < 1e-12);
        assert!(run.relative_energy(&base) > 1.0);
    }

    #[test]
    fn degenerate_baselines_are_zero() {
        let base = metrics(0.0, 0);
        let run = metrics(1.0, 1);
        assert_eq!(run.normalized_ipc(&base), 0.0);
        assert_eq!(run.relative_energy(&base), 0.0);
    }

    #[test]
    fn histograms_and_per_core_roll_up_across_channels() {
        let mut a = channel(0, 100);
        a.per_core.slot(0).read_latency.record(10_000);
        a.per_core.slot(0).read_latency.record(20_000);
        let mut b = channel(1, 100);
        b.per_core.slot(1).read_latency.record(40_000);
        b.per_core.slot(1).write_latency.record(5_000);
        b.per_core.slot(1).throttled_acts = 4;
        b.per_core.slot(1).mitigation_triggers = 3;
        let m = Metrics::from_channels(
            "w".into(),
            "s".into(),
            vec![1.0],
            1,
            1,
            0.0,
            vec![a, b],
            &EnergyModel::ddr5_default(),
        );
        assert_eq!(m.read_latency.count(), 3);
        assert_eq!(m.read_latency.sum(), 70_000);
        assert_eq!(m.write_latency.count(), 1);
        assert_eq!(m.throttled_acts, 4);
        assert_eq!(m.per_core.len(), 2);
        assert_eq!(m.per_core.get(1).unwrap().mitigation_triggers, 3);
        assert_eq!(m.per_core.get(0).unwrap().read_latency.count(), 2);
    }

    #[test]
    fn qos_stats_roll_up_only_when_present() {
        // Both channels off → system roll-up stays None (byte-identity).
        let m = metrics(1.0, 10);
        assert!(m.qos.is_none());

        let mut a = channel(0, 10);
        a.qos = Some(QosStats {
            windows: 4,
            throttled_acts: 6,
            per_thread: vec![mithril_memctrl::QosThreadStats {
                suspect_windows: 2,
                throttled_acts: 6,
                score: 32,
                pressure: 48,
            }],
        });
        let b = channel(1, 10); // qos: None (mixed is tolerated)
        let m = Metrics::from_channels(
            "w".into(),
            "s".into(),
            vec![1.0],
            1,
            1,
            0.0,
            vec![a, b],
            &EnergyModel::ddr5_default(),
        );
        let q = m.qos.expect("one QoS channel is enough for a roll-up");
        assert_eq!(q.windows, 4);
        assert_eq!(q.throttled_acts, 6);
        assert_eq!(q.per_thread[0].suspect_windows, 2);
    }

    #[test]
    fn geomean_of_equal_values() {
        assert!((geomean(&[3.0, 3.0, 3.0]) - 3.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }
}
