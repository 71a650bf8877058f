//! QoS campaign acceptance and determinism pins.
//!
//! The acceptance test of the multi-tenant QoS layer: on the
//! noisy-neighbor tenancy mix under Mithril, turning throttling on must
//! improve the victims' tail latency *and* the activations fairness
//! ratio at equal flip safety — and the campaign report proving it must
//! be byte-identical at any worker-thread count.

use mithril_runner::engine::PoolConfig;
use mithril_runner::report::qos_campaign_json;
use mithril_runner::run_campaign;
use mithril_runner::scenarios::QosCampaignSpec;
use mithril_sim::Metrics;

fn pool(threads: usize) -> PoolConfig {
    PoolConfig {
        threads,
        shard_size: 1,
    }
}

/// The smoke campaign at a horizon long enough for suspect election to
/// engage (the 4k-inst smoke default rotates only a couple of pressured
/// windows).
fn acceptance_spec() -> QosCampaignSpec {
    let mut spec = QosCampaignSpec::smoke();
    spec.base.insts_per_core = 20_000;
    spec
}

/// Worst victim read tail: the noisy-neighbor mix pins the hammering
/// tenant on the highest core index, victims below it.
fn victim_p99(m: &Metrics) -> u64 {
    let hammer = m.per_core.iter().map(|(core, _)| core).max();
    m.per_core
        .iter()
        .filter(|(core, _)| Some(*core) != hammer)
        .map(|(_, c)| c.read_latency.p99())
        .max()
        .unwrap_or(0)
}

/// min/max activations ratio across all tenants (1.0 = perfectly fair).
fn fairness(m: &Metrics) -> f64 {
    let acts: Vec<u64> = m.per_core.iter().map(|(_, c)| c.acts).collect();
    match (acts.iter().min(), acts.iter().max()) {
        (Some(&lo), Some(&hi)) if hi > 0 => lo as f64 / hi as f64,
        _ => 0.0,
    }
}

#[test]
fn throttling_improves_victims_at_equal_flip_safety() {
    let spec = acceptance_spec();
    let passes = run_campaign(&spec.passes(), pool(2), 1, None);
    let i = passes[0]
        .iter()
        .position(|r| r.scenario.name.starts_with("mithril/"))
        .expect("mithril scenario present");
    let (off_res, on_res) = (&passes[0][i], &passes[1][i]);
    assert_eq!(
        on_res.scenario.name,
        format!("{}+qos", off_res.scenario.name)
    );
    assert_eq!(
        off_res.seed, on_res.seed,
        "pair members must run under the same seed"
    );
    let off = off_res.outcome.as_ref().expect("QoS-off run succeeds");
    let on = on_res.outcome.as_ref().expect("QoS-on run succeeds");

    // QoS-off carries no QoS section at all (byte-identity contract);
    // QoS-on reports real throttling.
    assert!(off.qos.is_none());
    let q = on.qos.as_ref().expect("QoS-on run carries stats");
    assert!(q.windows > 0);
    assert!(q.throttled_acts > 0, "the hammer must actually be deferred");

    // Attribution: the hammering tenant (highest thread id) owns the
    // dominant share of the cumulative tracker pressure and all of the
    // deferrals; no victim was ever elected suspect.
    let hammer = q.per_thread.len() - 1;
    let victim_pressure: u64 = q.per_thread[..hammer].iter().map(|t| t.pressure).sum();
    assert!(q.per_thread[hammer].pressure > victim_pressure);
    assert_eq!(
        q.per_thread[..hammer]
            .iter()
            .map(|t| t.suspect_windows)
            .sum::<u64>(),
        0,
        "no victim may be elected suspect on this mix"
    );

    // The acceptance inequality: victims' tail latency and the fairness
    // ratio both improve, at equal flip safety.
    assert!(
        victim_p99(on) < victim_p99(off),
        "victim p99 must improve: off {} vs on {}",
        victim_p99(off),
        victim_p99(on)
    );
    assert!(
        fairness(on) > fairness(off),
        "fairness must improve: off {} vs on {}",
        fairness(off),
        fairness(on)
    );
    assert_eq!(on.flips, off.flips, "flip safety must not degrade");
    assert!(on.max_disturbance <= off.max_disturbance);
}

fn campaign_report_at(threads: usize) -> String {
    let mut spec = QosCampaignSpec::smoke();
    spec.base.insts_per_core = 2_000;
    spec.base.cores = 3;
    let passes = run_campaign(&spec.passes(), pool(threads), 9, None);
    qos_campaign_json(9, &passes[0], &passes[1])
}

#[test]
fn qos_campaign_report_identical_at_1_2_and_8_threads() {
    let base = campaign_report_at(1);
    assert_eq!(base, campaign_report_at(2), "2 threads diverged from 1");
    assert_eq!(base, campaign_report_at(8), "8 threads diverged from 1");
    // The per-tenant comparison pairs are present and complete.
    assert!(base.contains("\"pairs\": ["));
    assert!(base.contains("\"off\":{\"victim_p50_ps\":"));
    assert!(base.contains("\"qos\":{\"victim_p50_ps\":"));
    assert!(base.contains("\"fairness_acts\":"));
    // QoS-on runs embed the qos metrics section; off runs never do.
    let on_entries = base.matches("\"qos\":{\"windows\":").count();
    assert_eq!(on_entries, 3, "every +qos scenario carries a qos section");
    assert!(base.contains("+qos\""));
}
