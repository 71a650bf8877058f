//! Roll-up invariants of [`Metrics::from_channels`]: for *any* per-channel
//! breakdown, the system-level totals must equal the exact sum (or max,
//! for disturbance) of the per-channel values — the property the
//! cross-channel attribution experiments and the sweep reports lean on.

// The proptest shim's `proptest!` macro expands each body statement
// recursively; this test makes many assertions per case.
#![recursion_limit = "1024"]

use mithril_dram::{ChannelId, EnergyCounters, EnergyModel};
use mithril_memctrl::{QosStats, QosThreadStats};
use mithril_obs::{LatencyHistogram, PerCore};
use mithril_sim::{ChannelMetrics, CoreStats, Metrics};
use proptest::prelude::*;

fn counters_strategy() -> impl Strategy<Value = EnergyCounters> {
    (
        (0u64..1 << 40, 0u64..1 << 40, 0u64..1 << 40, 0u64..1 << 40),
        (0u64..1 << 40, 0u64..1 << 40, 0u64..1 << 40, 0u64..1 << 40),
    )
        .prop_map(
            |((acts, pres, reads, writes), (auto, prev, rfm, mrr))| EnergyCounters {
                acts,
                pres,
                reads,
                writes,
                auto_refresh_rows: auto,
                preventive_rows: prev,
                rfm_commands: rfm,
                mrr_commands: mrr,
            },
        )
}

fn qos_strategy() -> impl Strategy<Value = Option<QosStats>> {
    // The offline proptest shim has no `prop::option`; a bool gate over
    // the inner strategy is equivalent.
    (
        any::<bool>(),
        0u64..1 << 30,
        prop::collection::vec(
            (0u64..1 << 20, 0u64..1 << 20, 0u64..1 << 20, 0u64..1 << 20),
            0..4,
        ),
    )
        .prop_map(|(present, windows, threads)| {
            present.then(|| QosStats {
                windows,
                throttled_acts: threads.iter().map(|t| t.1).sum(),
                per_thread: threads
                    .into_iter()
                    .map(
                        |(suspect_windows, throttled_acts, score, pressure)| QosThreadStats {
                            suspect_windows,
                            throttled_acts,
                            score,
                            pressure,
                        },
                    )
                    .collect(),
            })
        })
}

fn channel_strategy() -> impl Strategy<Value = ChannelMetrics> {
    (
        counters_strategy(),
        (0u64..1 << 30, 0u64..1 << 30),
        (0u64..1 << 20, 0usize..1 << 10),
        0u32..1000,
        prop::collection::vec((0u64..1 << 50, 0usize..4, any::<bool>()), 0..8),
        prop::collection::vec(0u64..1 << 20, 0..4),
        qos_strategy(),
    )
        .prop_map(
            |(
                counters,
                (rfm_elisions, arrs),
                (max_disturbance, flips),
                hit_milli,
                latency_samples,
                throttles,
                qos,
            )| {
                let mut per_core: PerCore<CoreStats> = PerCore::new();
                for &(lat_ps, core, is_write) in &latency_samples {
                    let slot = per_core.slot(core);
                    if is_write {
                        slot.write_latency.record(lat_ps);
                    } else {
                        slot.read_latency.record(lat_ps);
                    }
                }
                for (core, &throttled_acts) in throttles.iter().enumerate() {
                    per_core.slot(core).throttled_acts = throttled_acts;
                }
                ChannelMetrics {
                    channel: ChannelId(0), // renumbered below
                    row_hit_rate: hit_milli as f64 / 1000.0,
                    energy_pj: EnergyModel::ddr5_default().dynamic_energy_pj(&counters),
                    counters,
                    rfm_elisions,
                    arrs,
                    max_disturbance,
                    flips,
                    per_core,
                    qos,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn totals_equal_per_channel_sums(
        raw_channels in prop::collection::vec(channel_strategy(), 1..6),
        ipcs in prop::collection::vec(0u32..10_000, 1..17),
    ) {
        // The macro re-borrows its args for failure reporting, so work on
        // a clone rather than moving the generated value.
        let mut channels = raw_channels.clone();
        for (i, ch) in channels.iter_mut().enumerate() {
            ch.channel = ChannelId(i);
        }
        let per_core_ipc: Vec<f64> = ipcs.iter().map(|&x| x as f64 / 1000.0).collect();
        let model = EnergyModel::ddr5_default();
        let m = Metrics::from_channels(
            "w".into(),
            "s".into(),
            per_core_ipc.clone(),
            123,
            456,
            0.25,
            channels.clone(),
            &model,
        );

        // Exact integer roll-ups.
        prop_assert_eq!(m.rfms, m.counters.rfm_commands);
        prop_assert_eq!(
            m.rfm_elisions,
            channels.iter().map(|c| c.rfm_elisions).sum::<u64>()
        );
        prop_assert_eq!(m.arrs, channels.iter().map(|c| c.arrs).sum::<u64>());
        prop_assert_eq!(
            m.throttled_acts,
            channels.iter().map(|c| CoreStats::total(&c.per_core).throttled_acts).sum::<u64>()
        );
        prop_assert_eq!(m.flips, channels.iter().map(|c| c.flips).sum::<usize>());
        prop_assert_eq!(
            m.max_disturbance,
            channels.iter().map(|c| c.max_disturbance).max().unwrap()
        );

        // Counter-by-counter merge: activations, refreshes, column traffic.
        prop_assert_eq!(m.counters.acts, channels.iter().map(|c| c.counters.acts).sum::<u64>());
        prop_assert_eq!(m.counters.pres, channels.iter().map(|c| c.counters.pres).sum::<u64>());
        prop_assert_eq!(m.counters.reads, channels.iter().map(|c| c.counters.reads).sum::<u64>());
        prop_assert_eq!(m.counters.writes, channels.iter().map(|c| c.counters.writes).sum::<u64>());
        prop_assert_eq!(
            m.counters.auto_refresh_rows,
            channels.iter().map(|c| c.counters.auto_refresh_rows).sum::<u64>()
        );
        prop_assert_eq!(
            m.counters.preventive_rows,
            channels.iter().map(|c| c.counters.preventive_rows).sum::<u64>()
        );
        prop_assert_eq!(
            m.counters.rfm_commands,
            channels.iter().map(|c| c.counters.rfm_commands).sum::<u64>()
        );
        prop_assert_eq!(
            m.counters.mrr_commands,
            channels.iter().map(|c| c.counters.mrr_commands).sum::<u64>()
        );

        // Aggregate IPC is the per-core sum; energy is the model over the
        // merged counters (= sum of per-channel energies, since the model
        // is linear in the counters).
        let ipc_sum: f64 = per_core_ipc.iter().sum();
        prop_assert!((m.aggregate_ipc - ipc_sum).abs() <= 1e-9 * ipc_sum.max(1.0));
        let energy_sum: f64 = channels.iter().map(|c| c.energy_pj).sum();
        prop_assert!(
            (m.energy_pj - energy_sum).abs() <= 1e-9 * energy_sum.max(1.0),
            "energy rollup {} != channel sum {}",
            m.energy_pj,
            energy_sum
        );

        // Histogram roll-up: the system histogram is the bucket-wise merge
        // of the channels, and (associativity + commutativity) folding in
        // reverse order produces the identical histogram.
        let mut fwd = LatencyHistogram::new();
        for c in &channels {
            fwd.merge(&CoreStats::total(&c.per_core).read_latency);
        }
        let mut rev = LatencyHistogram::new();
        for c in channels.iter().rev() {
            rev.merge(&CoreStats::total(&c.per_core).read_latency);
        }
        prop_assert_eq!(&fwd, &rev);
        prop_assert_eq!(&m.read_latency, &fwd);
        prop_assert_eq!(
            m.read_latency.count(),
            channels.iter().map(|c| CoreStats::total(&c.per_core).read_latency.count()).sum::<u64>()
        );
        prop_assert_eq!(
            m.write_latency.count(),
            channels.iter().map(|c| CoreStats::total(&c.per_core).write_latency.count()).sum::<u64>()
        );

        // Per-core roll-up: each core's histograms and counts are the merge
        // of that core's slot across channels.
        let mut expected: PerCore<CoreStats> = PerCore::new();
        for c in &channels {
            expected.merge_by(&c.per_core, CoreStats::merge);
        }
        prop_assert_eq!(&m.per_core, &expected);

        // QoS roll-up: present exactly when any channel carries QoS stats
        // (the byte-identity contract for QoS-off reports), with additive
        // totals and index-wise per-thread merging.
        prop_assert_eq!(m.qos.is_some(), channels.iter().any(|c| c.qos.is_some()));
        if let Some(q) = &m.qos {
            let mut expected_qos = QosStats::default();
            for c in &channels {
                if let Some(cq) = &c.qos {
                    expected_qos.merge(cq);
                }
            }
            prop_assert_eq!(q, &expected_qos);
            prop_assert_eq!(
                q.windows,
                channels.iter().filter_map(|c| c.qos.as_ref()).map(|x| x.windows).sum::<u64>()
            );
        }

        // The channel breakdown itself is passed through untouched.
        prop_assert_eq!(m.per_channel, channels);
    }
}
