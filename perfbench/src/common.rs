//! What every workload shares: the report shape, seed derivation, the
//! timed loop and the small statistics helpers.

use std::time::Instant;

use mithril_sim::LatencyHistogram;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit string.
    pub unit: &'static str,
}

/// The result of one benchmark invocation.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Checked operations (simulation runs, sweep items, harness windows).
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failures: Vec<String>,
    /// Metrics in output order.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Appends a metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// The value of metric `name`, if reported.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The final result line: one JSON object with exactly the keys
    /// `correct`, `attempted`, `failed` and `metrics`.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_num(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty(),
            self.attempted.max(1),
            self.failures.len(),
            metrics.join(", ")
        )
    }
}

/// A finite float with all its digits (shortest round-trip form); JSON
/// has no NaN or infinity, so those become 0.
fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0.0".to_string()
    }
}

/// Derives the seed of input stream `stream` from the workload seed, so
/// every generated input (generators, captures, patterns, scheme RNGs)
/// is a pure function of `--seed`.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    mithril_runner::engine::item_seed(seed, stream as usize, 0)
}

/// The simulated outputs of one timed unit. For a given seed they repeat
/// bit-exactly, so every unit after the first is checked against it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Model {
    /// Aggregate IPC (or the workload's documented analog).
    pub ipc: f64,
    /// Read p99 latency, nanoseconds (or the documented analog).
    pub read_p99_ns: f64,
    /// Dynamic DRAM energy per instruction, picojoules.
    pub energy_pj_per_inst: f64,
    /// Worst victim disturbance over the protected runs.
    pub max_disturbance: f64,
}

impl Model {
    /// Bit-exact equality of every output.
    pub fn same_as(&self, other: &Model) -> bool {
        self.bits() == other.bits()
    }

    fn bits(&self) -> [u64; 4] {
        [
            self.ipc.to_bits(),
            self.read_p99_ns.to_bits(),
            self.energy_pj_per_inst.to_bits(),
            self.max_disturbance.to_bits(),
        ]
    }
}

/// What one timed unit of work produced.
#[derive(Debug, Clone, Default)]
pub struct Unit {
    /// Simulated ACTs the unit issued.
    pub acts: u64,
    /// Checked operations inside the unit.
    pub ops: u64,
    /// Failed output checks, one line each.
    pub failures: Vec<String>,
    /// The unit's simulated outputs.
    pub model: Model,
}

/// Seconds one [`Reference`] pass takes on an idle host of the kind the
/// benchmark was sized on (2 vCPUs of a 2.0 GHz Xeon). Normalized host
/// times are expressed in these units.
const REFERENCE_NOMINAL_S: f64 = 0.032;

/// How strongly a span follows the reference: across the four workloads
/// on the sizing host, log(unit time) rose by 0.6 to 0.9 per unit of
/// log(reference time), so spans are scaled by the reference slowdown to
/// this power rather than divided by it outright.
const REFERENCE_EXPONENT: f64 = 0.75;

/// A fixed memory-bound loop timed right before every set-up and unit.
///
/// Co-tenants on a shared host slow the cache and memory hierarchy by up
/// to 2.3x for minutes at a time, while core speed stays put; a pure
/// compute loop does not see it. The reference does (random updates over
/// 8 MiB), so scaling each span by the reference passes around it cancels
/// most of that interference. It is the benchmark's own code, so a change
/// to the simulator moves only the measured span.
struct Reference {
    buf: Vec<u64>,
}

impl Reference {
    fn new() -> Self {
        Self {
            buf: vec![1; 1 << 20],
        }
    }

    /// Seconds of one pass.
    fn time(&mut self) -> f64 {
        let t = Instant::now();
        let len = self.buf.len() as u64;
        let mut x = 1u64;
        for i in 0..3_000_000u64 {
            x = mithril_runner::engine::splitmix64(x ^ i);
            let j = (x % len) as usize;
            self.buf[j] = self.buf[j].wrapping_add(x);
        }
        std::hint::black_box(&self.buf);
        t.elapsed().as_secs_f64()
    }

    /// Spans in nominal seconds: span `i` ran between passes `refs[i]`
    /// and `refs[i + 1]` and is scaled by their mean.
    fn normalize(secs: &[f64], refs: &[f64]) -> Vec<f64> {
        secs.iter()
            .zip(refs.windows(2))
            .map(|(&s, pair)| {
                let ref_s = (pair[0] + pair[1]) / 2.0;
                s * (REFERENCE_NOMINAL_S / ref_s).powf(REFERENCE_EXPONENT)
            })
            .collect()
    }
}

/// Everything the timed loop measured.
#[derive(Debug, Clone)]
pub struct Measured {
    /// Median normalized set-up time over the repetitions, seconds.
    pub setup_s: f64,
    /// Host seconds of every timed unit.
    pub unit_secs: Vec<f64>,
    /// Normalized seconds of every timed unit.
    pub unit_norm_secs: Vec<f64>,
    /// ACTs over all timed units.
    pub acts: u64,
    /// The first unit's simulated outputs.
    pub model: Model,
    /// Checked operations over all units.
    pub attempted: u64,
    /// Failed checks over all units.
    pub failures: Vec<String>,
}

impl Measured {
    /// Simulated ACTs per normalized host second: one unit's ACTs over
    /// the median normalized unit time. Every unit repeats identical
    /// simulated work, so this is the median of the per-unit rates;
    /// unlike a best-of-N it does not flatter, and unlike a plain total
    /// it is not dragged by interference covering a minority of units.
    pub fn macts_per_s(&self) -> f64 {
        let per_unit = self.acts as f64 / self.unit_secs.len() as f64;
        per_unit / median(&self.unit_norm_secs) / 1e6
    }

    /// The end-to-end metrics, in [`END_TO_END`] order.
    pub fn end_to_end(&self) -> Report {
        let mut r = Report {
            attempted: self.attempted,
            failures: self.failures.clone(),
            metrics: Vec::new(),
        };
        let values = [
            self.macts_per_s(),
            self.setup_s,
            peak_rss_mb(),
            self.model.ipc,
            self.model.read_p99_ns,
            self.model.energy_pj_per_inst,
            self.model.max_disturbance,
        ];
        for ((name, unit), value) in END_TO_END.iter().zip(values) {
            r.push(*name, value, unit);
        }
        r
    }
}

/// The end-to-end metrics and their units, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 7] = [
    ("host_macts_per_s", "Macts/s"),
    ("setup_s", "s"),
    ("host_peak_rss_mb", "MB"),
    ("model_ipc", "inst/cycle"),
    ("model_read_p99_ns", "ns"),
    ("model_energy_pj_per_inst", "pJ/inst"),
    ("model_max_disturbance", "acts"),
];

/// Runs `setup` `setup_reps` times (timing each; the median is the set-up
/// metric), then repeats `unit` on the last set-up's inputs until
/// `seconds` of units have run (at least `min_units`). Every unit's model
/// outputs must equal the first unit's bit for bit. [`Reference`] passes
/// bracket every set-up and unit.
pub fn measure<P>(
    seconds: f64,
    setup_reps: usize,
    min_units: usize,
    mut setup: impl FnMut() -> Result<P, String>,
    mut unit: impl FnMut(&P) -> Unit,
) -> Result<(Measured, P), String> {
    let mut reference = Reference::new();
    let mut setups = Vec::with_capacity(setup_reps);
    let mut setup_refs = Vec::with_capacity(setup_reps + 1);
    let mut prepared = None;
    for _ in 0..setup_reps.max(1) {
        // Drop the previous repetition's inputs outside the timed span.
        drop(prepared.take());
        setup_refs.push(reference.time());
        let t = Instant::now();
        let p = setup()?;
        setups.push(t.elapsed().as_secs_f64());
        prepared = Some(p);
    }
    setup_refs.push(reference.time());
    let prepared = prepared.expect("at least one setup repetition");
    let mut m = Measured {
        setup_s: median(&Reference::normalize(&setups, &setup_refs)),
        unit_secs: Vec::new(),
        unit_norm_secs: Vec::new(),
        acts: 0,
        model: Model::default(),
        attempted: 0,
        failures: Vec::new(),
    };
    let mut first: Option<[u64; 4]> = None;
    let mut unit_refs = Vec::new();
    while m.unit_secs.len() < min_units.max(1) || m.unit_secs.iter().sum::<f64>() < seconds {
        unit_refs.push(reference.time());
        let t = Instant::now();
        let u = unit(&prepared);
        m.unit_secs.push(t.elapsed().as_secs_f64());
        m.acts += u.acts;
        m.attempted += u.ops;
        m.failures.extend(u.failures);
        match first {
            None => {
                first = Some(u.model.bits());
                m.model = u.model;
            }
            Some(bits) if bits != u.model.bits() => {
                m.attempted += 1;
                m.failures.push(format!(
                    "unit {} model outputs {:?} differ from unit 0 {:?}",
                    m.unit_secs.len() - 1,
                    u.model,
                    m.model
                ));
            }
            Some(_) => {}
        }
    }
    unit_refs.push(reference.time());
    m.unit_norm_secs = Reference::normalize(&m.unit_secs, &unit_refs);
    let refs: Vec<f64> = setup_refs.into_iter().chain(unit_refs).collect();
    eprintln!(
        "# {} set-ups, {} units: median unit {:.3} s host, {:.3} s normalized; \
         median reference pass {:.4} s (nominal {REFERENCE_NOMINAL_S} s)",
        setups.len(),
        m.unit_secs.len(),
        median(&m.unit_secs),
        median(&m.unit_norm_secs),
        median(&refs)
    );
    Ok((m, prepared))
}

/// Median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Geometric mean of positive values (0 when empty).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// The 99th percentile of `h` in picoseconds, interpolated linearly
/// inside its HDR bucket. The histogram's own `p99` reports the bucket's
/// lower bound (up to 6.25% low), which would hide small model changes.
pub fn p99_ps(h: &LatencyHistogram) -> f64 {
    let n = h.count();
    if n == 0 {
        return 0.0;
    }
    let lb = h.quantile_lower_bound(99, 100);
    let target = (n * 99).div_ceil(100).max(1);
    // The value at 1-based rank r is `quantile_lower_bound(r, n)`, which
    // is monotone in r: binary-search the ranks held by `lb`'s bucket.
    let first_rank_above = |limit: u64, strict: bool| {
        let (mut lo, mut hi) = (1u64, n + 1);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let v = h.quantile_lower_bound(mid, n);
            if (strict && v > limit) || (!strict && v >= limit) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    };
    let below = first_rank_above(lb, false) - 1;
    let upto = first_rank_above(lb, true) - 1;
    let width = if lb < 16 {
        1.0
    } else {
        (1u64 << (63 - lb.leading_zeros() - 4)) as f64
    };
    let in_bucket = (upto - below).max(1) as f64;
    let frac = ((target - below) as f64 - 0.5) / in_bucket;
    (lb as f64 + width * frac.clamp(0.0, 1.0)).min(h.max() as f64)
}

/// Peak resident set size of this process, megabytes (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolated_p99_stays_inside_the_bucket() {
        let mut h = LatencyHistogram::new();
        for v in 0..1000u64 {
            h.record(100_000 + v * 37);
        }
        let lb = h.p99() as f64;
        let p = p99_ps(&h);
        assert!(p >= lb && p <= lb * 1.0625 + 1.0, "{p} vs {lb}");
        assert!(p <= h.max() as f64);
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }
}
