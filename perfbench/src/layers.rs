//! The per-layer metrics of the traced run. Every traced run reports
//! every name below; a layer the workload does not exercise reads 0.

use std::collections::BTreeMap;

use crate::common::Report;

/// Catalog scheme labels and the metric-name suffix each reports under
/// (`+` is not allowed in metric names).
pub const SCHEME_SUFFIX: [(&str, &str); 9] = [
    ("none", "none"),
    ("mithril", "mithril"),
    ("mithril+", "mithril-plus"),
    ("parfm", "parfm"),
    ("graphene", "graphene"),
    ("twice", "twice"),
    ("cbt", "cbt"),
    ("para", "para"),
    ("blockhammer", "blockhammer"),
];

/// Fixed per-layer metrics with their units, in output order. The
/// per-scheme `system.new_ms.<scheme>` names follow `mitigation.*`.
const FIXED: [(&str, &str); 24] = [
    ("workloads.next_op_ns", "ns"),
    ("workloads.ops", "count"),
    ("workloads.share", "fraction"),
    ("trace.record_ns_per_op", "ns"),
    ("trace.decode_ns_per_op", "ns"),
    ("trace.bytes_per_op", "B"),
    ("llc.access_ns", "ns"),
    ("llc.miss_rate", "fraction"),
    ("mapping.map_line_ns", "ns"),
    ("controller.lane_recomputes_per_act", "count"),
    ("controller.cand_hits_per_act", "count"),
    ("controller.ns_per_cmd", "ns"),
    ("controller.cmds_per_act", "count"),
    ("qos.windows", "count"),
    ("qos.suspect_elections", "count"),
    ("qos.throttled_acts", "count"),
    ("mitigation.on_activate_ns", "ns"),
    ("mitigation.on_rfm_ns", "ns"),
    ("mitigation.rfms_per_kact", "count"),
    ("mitigation.elided_frac", "fraction"),
    ("harness.try_activate_ns", "ns"),
    ("harness.share", "fraction"),
    ("engine.pool_efficiency", "fraction"),
    ("engine.straggler_s", "s"),
];

/// Metrics listed after the per-scheme block.
const TAIL: [(&str, &str); 3] = [
    ("report.render_ms", "ms"),
    ("obs.overhead_frac", "fraction"),
    ("bench.trace_overhead_frac", "fraction"),
];

/// The metric name of `System::new` time for catalog scheme `label`.
pub fn new_ms_name(label: &str) -> String {
    let suffix = SCHEME_SUFFIX
        .iter()
        .find(|(l, _)| *l == label)
        .map_or(label, |(_, s)| s);
    format!("system.new_ms.{suffix}")
}

/// Every per-layer metric name and unit, in output order.
pub fn names() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> =
        FIXED.iter().map(|(n, u)| (n.to_string(), *u)).collect();
    out.extend(SCHEME_SUFFIX.iter().map(|(l, _)| (new_ms_name(l), "ms")));
    out.extend(TAIL.iter().map(|(n, u)| (n.to_string(), *u)));
    out
}

/// Values collected by a traced run.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<String, f64>);

impl Layers {
    /// Sets metric `name`.
    ///
    /// # Panics
    ///
    /// Panics on a name outside [`names`] — a bug in the benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(
            names().iter().any(|(n, _)| n == name),
            "unknown per-layer metric {name}"
        );
        self.0.insert(name.to_string(), value);
    }

    /// Every per-layer metric (0 where unset) as a report.
    pub fn into_report(self, attempted: u64, failures: Vec<String>) -> Report {
        let mut r = Report {
            attempted,
            failures,
            metrics: Vec::new(),
        };
        for (name, unit) in names() {
            let v = self.0.get(&name).copied().unwrap_or(0.0);
            r.push(name, v, unit);
        }
        r
    }
}
