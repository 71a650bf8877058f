//! The scenario registry: named workloads, scheme catalogs, and
//! scheme × workload × geometry sweep specifications.
//!
//! Everything the `paper` report and the sweeps share lives here once:
//! the scheme catalog, the workload name → [`ThreadSet`] factory, the
//! standard `(FlipTH, RFMTH)` sweep, and the [`Scenario`] unit the sweep
//! engine executes. What only the paper report reads (its per-figure
//! panels, Table IV's rows) is private to the `paper` binary.

use mithril_dram::{Ddr5Timing, Geometry};
use mithril_obs::ObsCapture;
use mithril_sim::{
    FaultConfig, Metrics, ObsConfig, QosConfig, QosPolicy, Scheme, System, SystemConfig,
};
use mithril_trace::DamagePolicy;
use mithril_workloads::{
    attack_mix, bh_cover_attack_mix, channel_interference_mix, mix_blend, mix_high, multithreaded,
    noisy_neighbor_mix, ThreadSet,
};

/// The `(FlipTH, RFMTH)` pairs of paper Fig. 9 (one point per column).
pub const MITHRIL_SWEEP: [(u64, u64); 8] = [
    (12_500, 512),
    (12_500, 256),
    (12_500, 128),
    (6_250, 256),
    (6_250, 128),
    (6_250, 64),
    (3_125, 128),
    (1_500, 32),
];

/// The Mithril RFMTH the paper pairs with each FlipTH in Figs. 10/11.
pub fn default_rfm_th(flip_th: u64) -> u64 {
    match flip_th {
        50_000 | 25_000 => 256,
        12_500 => 256,
        6_250 => 128,
        3_125 => 64,
        1_500 => 32,
        other => panic!("no default RFMTH for FlipTH {other}"),
    }
}

/// Mithril and Mithril+ at `rfm_th` with adaptive refresh (AdTH 200), the
/// configuration every scheme catalog compares.
pub(crate) fn mithril_variants(rfm_th: u64) -> [(&'static str, Scheme); 2] {
    let mithril = |plus| Scheme::Mithril {
        rfm_th,
        ad_th: Some(200),
        plus,
    };
    [("mithril", mithril(false)), ("mithril+", mithril(true))]
}

/// Every scheme, for full-system comparisons (the `system_comparison`
/// example, the default sweep and the `paper` report's panels).
pub fn all_schemes(rfm_th: u64, nbl_scale: u64) -> Vec<(&'static str, Scheme)> {
    let mut schemes = vec![("none", Scheme::None)];
    schemes.extend(mithril_variants(rfm_th));
    schemes.extend([
        ("parfm", Scheme::Parfm),
        ("graphene", Scheme::Graphene),
        ("twice", Scheme::TwiCe),
        ("cbt", Scheme::Cbt),
        ("para", Scheme::Para),
        ("blockhammer", Scheme::BlockHammer { nbl_scale }),
    ]);
    schemes
}

/// Instantiates a workload set by name for `cores` threads.
///
/// Names: `mix-high`, `mix-blend`, `fft`, `radix`, `pagerank`, attack
/// sets `attack-double`, `attack-multi`, `attack-bh` (profiled CBF
/// collisions) and `attack-bh-pollution` on a mix-high background,
/// `channel-interference` (hammer on channel 0, streaming victims on the
/// other channels), and `noisy-neighbor` (one hammering tenant sharing
/// channel 0 with latency-sensitive victim tenants — the QoS campaign's
/// workload).
///
/// `trace:<path>` replays the MTRC capture at `<path>` (recorded with the
/// `trace` binary or [`mithril_trace::record_thread_set`]): one replay
/// thread per recorded core, looping if the simulation outruns the
/// capture. Replay ignores `seed` — the ops are literal; only the
/// scheme's RNG (seeded from the scenario seed as usual) remains random.
///
/// `trace+skip:<path>` is the corruption-tolerant variant: damaged
/// chunks of the capture are skipped (reported on stderr, once per
/// decoded capture however many scenarios replay it) and the
/// surviving ops replay in order. Strict `trace:` still refuses damaged
/// files — use `+skip` deliberately, on captures known to be partial.
///
/// # Panics
///
/// Panics on an unknown name, when the workload needs more channels than
/// `cfg` has (see [`workload_compatible`]), or when a `trace:` capture is
/// unreadable or disagrees with `cfg`'s geometry or `cores`.
pub fn workload(name: &str, cores: usize, cfg: &SystemConfig, seed: u64) -> ThreadSet {
    if let Some((path, policy)) = capture_name(name) {
        let (capture, set) = mithril_trace::replay_thread_set(std::path::Path::new(path), policy)
            .unwrap_or_else(|e| panic!("cannot replay {path}: {e}"));
        let header = &capture.header;
        assert_eq!(
            header.cores, cores,
            "{path} records {} cores, scenario asks for {cores}",
            header.cores
        );
        assert_eq!(
            header.geometry,
            cfg.geometry,
            "{path} was captured on geometry {}, scenario runs {}",
            geometry_tag(&header.geometry),
            geometry_tag(&cfg.geometry)
        );
        if let Some(line) = capture.take_skip_line(name) {
            eprintln!("{line}");
        }
        return set;
    }
    match name {
        "mix-high" => mix_high(cores, seed),
        "mix-blend" => mix_blend(cores, seed),
        "fft" | "radix" | "pagerank" => multithreaded(name, cores, seed),
        "attack-double" => attack_mix("double", cores, cfg.mapping(), seed),
        "attack-multi" => attack_mix("multi", cores, cfg.mapping(), seed),
        // The profiled CBF-collision pattern of Fig. 10(c): victims are the
        // rows the mix-high sweeps hammer first (offsets 0/249/499/748).
        // Concentrated enough that the attacker's budget pushes every
        // cover row past the (scaled) blacklist threshold within a slice.
        "attack-bh" => bh_cover_attack_mix(
            cores,
            cfg.mapping(),
            cfg.flip_th,
            &Ddr5Timing::ddr5_4800(),
            &[0, 1, 249, 250],
            2,
            seed,
        ),
        "attack-bh-pollution" => attack_mix("bh-adversarial", cores, cfg.mapping(), seed),
        "channel-interference" => channel_interference_mix(cores, cfg.mapping(), seed),
        "noisy-neighbor" => noisy_neighbor_mix(cores, cfg.mapping(), seed),
        other => panic!("unknown workload {other}"),
    }
}

/// True when `name` can run on `geometry`: the channel-interference mix
/// needs at least two channels, a `trace:`/`trace+skip:` capture only
/// runs on the geometry it was recorded against (its line addresses were
/// aimed through that mapping), and everything else runs anywhere.
///
/// An unreadable capture counts as compatible here so sweeps don't
/// silently skip it — [`workload`] then fails loudly with the I/O error.
pub fn workload_compatible(name: &str, geometry: &Geometry) -> bool {
    if let Some((path, _)) = capture_name(name) {
        return match mithril_trace::read_header_path(std::path::Path::new(path)) {
            Ok(header) => header.geometry == *geometry,
            Err(_) => true,
        };
    }
    name != "channel-interference" || geometry.channels >= 2
}

/// The capture path and damage policy of a `trace:<path>` /
/// `trace+skip:<path>` registry name.
fn capture_name(name: &str) -> Option<(&str, DamagePolicy)> {
    let (prefix, path) = name.split_once(':')?;
    let policy = [DamagePolicy::Strict, DamagePolicy::Skip]
        .into_iter()
        .find(|policy| policy.prefix() == prefix)?;
    Some((path, policy))
}

/// Simulated-time cap per requested instruction: several times the benign
/// runtime, so a heavily throttled thread (BlockHammer vs an attacker)
/// cannot stretch one run to seconds of simulated time; its depressed IPC
/// still shows in the metrics. Applied by [`Scenario::run`] and
/// [`Scenario::run_observed`] alike, so the paper report and every sweep
/// stay comparable.
const MAX_TIME_PS_PER_INST: u64 = 4_000;

/// A compact tag identifying a geometry in scenario names and reports,
/// e.g. `2ch2rk32b`.
pub(crate) fn geometry_tag(g: &Geometry) -> String {
    format!("{}ch{}rk{}b", g.channels, g.ranks, g.banks_per_rank)
}

/// One executable unit of a sweep: a scheme on a workload on a geometry.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Unique scenario id: `scheme/workload/geometry`.
    pub name: String,
    /// Scheme label for reporting.
    pub scheme_label: String,
    /// The protection scheme.
    pub scheme: Scheme,
    /// Workload name (see [`workload`]).
    pub workload: String,
    /// The memory hierarchy.
    pub geometry: Geometry,
    /// Row Hammer threshold.
    pub flip_th: u64,
    /// Cores to simulate.
    pub cores: usize,
    /// Instructions per core.
    pub insts_per_core: u64,
    /// Soft-error injection into the scheme's tracker state, if any.
    /// `None` (the default everywhere outside fault campaigns) leaves the
    /// hot path untouched and the report byte-identical to a fault-free
    /// build.
    pub faults: Option<FaultConfig>,
    /// Controller-side multi-tenant QoS throttling. `Off` (the default
    /// everywhere outside QoS campaigns) builds no QoS state at all, so
    /// QoS-off sweeps stay byte-identical to pre-QoS reports.
    pub qos: QosPolicy,
}

impl Scenario {
    /// Builds the scenario's [`SystemConfig`] (Table III defaults with the
    /// scenario's hierarchy, scheme and threshold applied).
    pub fn system_config(&self, seed: u64) -> SystemConfig {
        let mut cfg = SystemConfig::table_iii();
        cfg.cores = self.cores;
        cfg.geometry = self.geometry;
        cfg.flip_th = self.flip_th;
        cfg.scheme = self.scheme;
        cfg.seed = seed;
        cfg.faults = self.faults;
        cfg.qos = self.qos;
        cfg
    }

    /// Runs the scenario under `seed` and returns its metrics (with the
    /// fault counters filled in when the scenario injects faults).
    ///
    /// # Errors
    ///
    /// Returns an error string when the scheme cannot be configured for
    /// this scenario's `flip_th`.
    pub fn run(&self, seed: u64) -> Result<Metrics, String> {
        let cfg = self.system_config(seed);
        let threads = workload(&self.workload, self.cores, &cfg, seed);
        Ok(System::new(cfg, threads)?.run(self.insts_per_core, self.max_time()))
    }

    /// Like [`Scenario::run`], additionally returning the observability
    /// capture (structured events + cycle-domain time series) recorded
    /// under `obs`. The metrics are identical to [`Scenario::run`]'s —
    /// observability reads simulator state but never steers it.
    ///
    /// # Errors
    ///
    /// As [`Scenario::run`].
    pub(crate) fn run_observed(
        &self,
        seed: u64,
        obs: ObsConfig,
    ) -> Result<(Metrics, ObsCapture), String> {
        let cfg = self.system_config(seed);
        let threads = workload(&self.workload, self.cores, &cfg, seed);
        let mut sys = System::with_obs(cfg, threads, obs)?;
        let metrics = sys.run(self.insts_per_core, self.max_time());
        Ok((metrics, sys.take_obs()))
    }

    fn max_time(&self) -> u64 {
        self.insts_per_core.saturating_mul(MAX_TIME_PS_PER_INST)
    }
}

/// A scheme × workload × geometry sweep specification.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Hierarchies to sweep.
    pub geometries: Vec<Geometry>,
    /// Labelled schemes to sweep.
    pub schemes: Vec<(String, Scheme)>,
    /// Workload names to sweep.
    pub workloads: Vec<String>,
    /// Row Hammer threshold for every scenario.
    pub flip_th: u64,
    /// Cores per scenario.
    pub cores: usize,
    /// Instructions per core per scenario.
    pub insts_per_core: u64,
}

impl SweepSpec {
    /// The smoke sweep exercised by CI and the determinism test: small
    /// instruction counts over 1×1, 2×1 and 2×2 channel×rank hierarchies,
    /// the unprotected baseline and both Mithril variants, on a benign mix
    /// and the cross-channel interference attack.
    pub fn smoke() -> Self {
        Self {
            geometries: vec![
                Geometry::default(),
                Geometry::table_iii_system(),
                Geometry::table_iii_system().with_ranks(2),
            ],
            schemes: [("none", Scheme::None)]
                .into_iter()
                .chain(mithril_variants(64))
                .map(|(label, s)| (label.to_string(), s))
                .collect(),
            workloads: vec![
                "mix-high".into(),
                "attack-multi".into(),
                "channel-interference".into(),
            ],
            flip_th: 6_250,
            cores: 4,
            insts_per_core: 4_000,
        }
    }

    /// The full default sweep: every scheme on the main workload classes
    /// across single- and multi-channel/rank hierarchies.
    pub fn full() -> Self {
        Self {
            geometries: vec![
                Geometry::default(),
                Geometry::table_iii_system(),
                Geometry::table_iii_system().with_ranks(2),
                Geometry::default().with_channels(4),
            ],
            schemes: all_schemes(64, 6)
                .into_iter()
                .map(|(label, s)| (label.to_string(), s))
                .collect(),
            workloads: vec![
                "mix-high".into(),
                "mix-blend".into(),
                "attack-multi".into(),
                "attack-double".into(),
                "channel-interference".into(),
            ],
            flip_th: 3_125,
            cores: 8,
            insts_per_core: 30_000,
        }
    }

    /// Expands the spec into concrete scenarios, skipping workloads that
    /// are incompatible with a geometry (e.g. channel interference on one
    /// channel).
    pub fn scenarios(&self) -> Vec<Scenario> {
        let mut out = Vec::new();
        for g in &self.geometries {
            for (label, scheme) in &self.schemes {
                for w in &self.workloads {
                    if !workload_compatible(w, g) {
                        continue;
                    }
                    out.push(Scenario {
                        name: format!("{label}/{w}/{}", geometry_tag(g)),
                        scheme_label: label.clone(),
                        scheme: *scheme,
                        workload: w.clone(),
                        geometry: *g,
                        flip_th: self.flip_th,
                        cores: self.cores,
                        insts_per_core: self.insts_per_core,
                        faults: None,
                        qos: QosPolicy::Off,
                    });
                }
            }
        }
        out
    }

    /// The campaign expansion both [`FaultCampaignSpec`] and
    /// [`QosCampaignSpec`] use: one pass of the base grid per variant,
    /// each scenario adjusted by `apply`. Position `i` of every pass is
    /// base cell `i`, the pairing [`crate::run_campaign`] seeds by.
    fn variant_passes<V>(
        &self,
        variants: &[V],
        apply: impl Fn(&mut Scenario, &V),
    ) -> Vec<Vec<Scenario>> {
        let grid = self.scenarios();
        variants
            .iter()
            .map(|variant| {
                grid.iter()
                    .cloned()
                    .map(|mut s| {
                        apply(&mut s, variant);
                        s
                    })
                    .collect()
            })
            .collect()
    }
}

/// A fault-resilience campaign: a base sweep crossed with a ladder of
/// soft-error rates.
///
/// Every base scenario is re-run once per rate, under the base cell's
/// seed; rate `0` runs fault-free (`faults: None`) and anchors each
/// degradation curve. Scenario names carry a `@f<rate>ppm` suffix so the
/// flat run list stays unambiguous.
#[derive(Debug, Clone)]
pub struct FaultCampaignSpec {
    /// The scheme × workload × geometry grid to stress.
    pub base: SweepSpec,
    /// Fault rates to sweep, in injected faults per million ACTs.
    /// Include `0` for the fault-free anchor point.
    pub rates_ppm: Vec<u64>,
    /// Scrub (self-check + repair at RFM cadence) on, or silent mode.
    pub scrub: bool,
}

impl FaultCampaignSpec {
    /// The CI smoke campaign: the Mithril variants and ParFM (the
    /// tracker schemes with a fault surface) on one benign and one
    /// attack workload, over a small rate ladder.
    pub fn smoke() -> Self {
        let mut base = SweepSpec::smoke();
        base.geometries.truncate(2);
        base.workloads = vec!["mix-high".into(), "attack-multi".into()];
        base.schemes.retain(|(label, _)| label != "none");
        base.schemes.push(("parfm".into(), Scheme::Parfm));
        Self {
            base,
            rates_ppm: vec![0, 100, 1_000, 10_000],
            scrub: true,
        }
    }

    /// Expands the campaign into its variant passes, one per rate in
    /// `rates_ppm` order, each the full base grid at that rate.
    pub fn passes(&self) -> Vec<Vec<Scenario>> {
        self.base.variant_passes(&self.rates_ppm, |s, &rate| {
            s.name = format!("{}@f{rate}ppm", s.name);
            s.faults = (rate > 0).then(|| {
                let cfg = FaultConfig::mixed(rate);
                if self.scrub {
                    cfg
                } else {
                    cfg.without_scrub()
                }
            });
        })
    }
}

/// A multi-tenant QoS campaign: the noisy-neighbor grid run twice, once
/// with QoS off and once with controller-side throttling on.
///
/// The QoS-off pass anchors every comparison (victim tail latency,
/// fairness, flip safety); the QoS-on pass re-runs the identical grid,
/// under the same seeds, with [`QosPolicy::Throttle`] and a `+qos` name
/// suffix so the flat run list stays unambiguous, mirroring the fault
/// campaign's `@f<rate>ppm` convention.
#[derive(Debug, Clone)]
pub struct QosCampaignSpec {
    /// The scheme × workload × geometry grid to run with and without QoS.
    pub base: SweepSpec,
    /// The throttling parameters applied in the QoS-on pass.
    pub qos: QosConfig,
}

impl QosCampaignSpec {
    /// The CI smoke campaign: the unprotected baseline and both Mithril
    /// variants on the noisy-neighbor tenancy mix over the Table III
    /// hierarchy.
    pub fn smoke() -> Self {
        let mut base = SweepSpec::smoke();
        base.geometries = vec![Geometry::table_iii_system()];
        base.workloads = vec!["noisy-neighbor".into()];
        Self {
            base,
            qos: QosConfig::default(),
        }
    }

    /// The full campaign: every catalog scheme on the noisy-neighbor mix
    /// over single- and dual-rank Table III hierarchies.
    pub fn full() -> Self {
        let mut base = SweepSpec::full();
        base.geometries = vec![
            Geometry::table_iii_system(),
            Geometry::table_iii_system().with_ranks(2),
        ];
        base.workloads = vec!["noisy-neighbor".into()];
        Self {
            base,
            qos: QosConfig::default(),
        }
    }

    /// Expands the campaign into its two variant passes: the base grid
    /// QoS-off (bit-identical to a plain sweep over `base`), then the same
    /// grid QoS-on with `+qos` name suffixes.
    pub fn passes(&self) -> Vec<Vec<Scenario>> {
        let policies = [QosPolicy::Off, QosPolicy::Throttle(self.qos)];
        self.base.variant_passes(&policies, |s, &qos| {
            if qos != QosPolicy::Off {
                s.name.push_str("+qos");
            }
            s.qos = qos;
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qos_campaign_pairs_off_and_on_passes() {
        let spec = QosCampaignSpec::smoke();
        let [off, on] = &spec.passes()[..] else {
            panic!("a QoS campaign has an off and an on pass");
        };
        assert_eq!(off.len(), spec.base.scenarios().len());
        assert_eq!(on.len(), off.len());
        assert!(off
            .iter()
            .all(|s| s.qos == QosPolicy::Off && !s.name.ends_with("+qos")));
        for (off, on) in off.iter().zip(on) {
            assert_eq!(on.name, format!("{}+qos", off.name));
            assert_eq!(on.qos, QosPolicy::Throttle(spec.qos));
            assert_eq!(on.workload, off.workload);
            assert_eq!(on.scheme_label, off.scheme_label);
        }
        assert!(off.iter().all(|s| s.workload == "noisy-neighbor"));
    }

    #[test]
    fn noisy_neighbor_workload_resolves() {
        let cfg = SystemConfig::table_iii();
        let set = workload("noisy-neighbor", 4, &cfg, 1);
        assert_eq!(set.threads.len(), 4);
        assert_eq!(set.name, "noisy-neighbor");
    }

    #[test]
    fn fault_campaign_expands_rate_major_with_anchor() {
        let spec = FaultCampaignSpec::smoke();
        let passes = spec.passes();
        let grid = spec.base.scenarios();
        assert_eq!(passes.len(), spec.rates_ppm.len());
        assert!(passes[0]
            .iter()
            .all(|s| s.faults.is_none() && s.name.ends_with("@f0ppm")));
        for pass in &passes {
            assert_eq!(pass.len(), grid.len());
            for (s, base) in pass.iter().zip(&grid) {
                assert!(s.name.starts_with(&format!("{}@f", base.name)));
            }
        }
        let last = passes.last().unwrap().last().unwrap();
        let faults = last.faults.expect("non-zero rates carry a FaultConfig");
        assert_eq!(faults.rate_ppm, *spec.rates_ppm.last().unwrap());
        assert!(faults.scrub);
    }

    #[test]
    fn default_rfmth_covers_sweep() {
        for flip in mithril_baselines::FLIP_TH_SWEEP {
            assert!(default_rfm_th(flip) >= 32);
        }
    }

    #[test]
    fn workloads_resolve_by_name() {
        let cfg = SystemConfig::table_iii();
        for name in [
            "mix-high",
            "mix-blend",
            "fft",
            "radix",
            "pagerank",
            "attack-double",
            "attack-multi",
            "channel-interference",
        ] {
            let set = workload(name, 4, &cfg, 1);
            assert_eq!(set.threads.len(), 4);
        }
    }

    #[test]
    fn incompatible_workloads_are_skipped() {
        assert!(!workload_compatible(
            "channel-interference",
            &Geometry::default()
        ));
        assert!(workload_compatible(
            "channel-interference",
            &Geometry::table_iii_system()
        ));
        assert!(workload_compatible("mix-high", &Geometry::default()));
        let spec = SweepSpec::smoke();
        let scenarios = spec.scenarios();
        assert!(scenarios
            .iter()
            .all(|s| workload_compatible(&s.workload, &s.geometry)));
        // The 1-channel geometry drops only the interference workload.
        let one_ch: Vec<_> = scenarios
            .iter()
            .filter(|s| s.geometry.channels == 1)
            .collect();
        assert!(one_ch.iter().all(|s| s.workload != "channel-interference"));
        assert!(!one_ch.is_empty());
    }

    #[test]
    fn smoke_sweep_covers_multi_rank_hierarchy() {
        let spec = SweepSpec::smoke();
        assert!(spec
            .geometries
            .iter()
            .any(|g| g.channels >= 2 && g.ranks >= 2));
        let n = spec.scenarios().len();
        // 3 geometries × 3 schemes × 3 workloads, minus the 1-channel
        // interference combinations.
        assert_eq!(n, 3 * 3 * 3 - 3);
    }

    #[test]
    fn scenario_runs_end_to_end() {
        let spec = SweepSpec::smoke();
        let s = spec
            .scenarios()
            .into_iter()
            .find(|s| s.geometry.ranks == 2 && s.workload == "channel-interference")
            .expect("2-rank interference scenario exists");
        let m = s.run(11).expect("scenario runs");
        assert!(m.total_insts > 0);
        assert_eq!(m.per_channel.len(), 2);
    }

    #[test]
    fn scheme_catalogs_are_distinct_and_labelled() {
        let all = all_schemes(64, 6);
        assert_eq!(all.len(), 9);
        for (i, (label, scheme)) in all.iter().enumerate() {
            assert_eq!(*label, scheme.name());
            assert!(all[..i].iter().all(|(other, _)| other != label), "{label}");
        }
    }
}
