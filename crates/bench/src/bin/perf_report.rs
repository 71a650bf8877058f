//! Hot-path performance baseline: measures the per-ACT cost of the
//! Stream-Summary bucket table against the retained linear-scan reference
//! and writes `BENCH_table.json` so future PRs have a recorded perf
//! trajectory.
//!
//! ```text
//! cargo run --release -p mithril-bench --bin perf_report [-- --out PATH] [-- --obs]
//! ```
//!
//! With `--obs` the report additionally runs one observed simulation
//! (ring sinks + cycle-domain sampler attached) and records its exact
//! per-kind event counts plus the observed vs unobserved activation rate
//! — a quick read on both the event mix and the instrumentation's cost.
//!
//! The report is one `Json` tree written by the workspace's report
//! writer (`render_report`): rates as whole ops/s, speedups to two
//! decimals.
//!
//! Any other argument, or `--out` without a path, prints usage and exits
//! with status 2 before anything is measured or written.
//!
//! The table workload is a fixed xorshift ACT stream: 30% hot-row hits,
//! 70% cold misses over a 4×K row universe, one RFM every 64 ACTs — the
//! same mix the simulator's activation path produces under mix-high.

use std::process::ExitCode;
use std::time::Instant;

use mithril::{MithrilTable, NaiveTable};
use mithril_obs::json::Json;
use mithril_obs::{json_obj, kind_counts_tree, KIND_NAMES};
use mithril_sim::{ObsConfig, SchedulerKind, Scheme, System, SystemConfig};
use mithril_workloads::mix_high;

const TABLE_SIZES: [usize; 4] = [32, 128, 512, 2048];
const OPS: usize = 100_000;
const RFM_EVERY: usize = 64;
/// Instructions per core for the end-to-end simulator rate measurement.
/// Both scheduler cores run the same count: the naive rescan's cost grows
/// with queue occupancy, so a shorter naive run would understate the gap.
const SIM_INSTS: u64 = 200_000;
/// Repetitions behind each end-to-end rate (reported as median, min, max).
const SIM_RUNS: usize = 5;

fn act_stream(len: usize, universe: u64) -> Vec<u64> {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if x % 10 < 3 {
                x % 8
            } else {
                x % universe
            }
        })
        .collect()
}

/// Runs `f` repeatedly until ~200 ms elapse and returns ops/second.
fn measure(ops_per_run: usize, mut f: impl FnMut()) -> f64 {
    // Warm-up.
    f();
    let t0 = Instant::now();
    let mut runs = 0u64;
    while t0.elapsed().as_millis() < 200 {
        f();
        runs += 1;
    }
    (runs as f64 * ops_per_run as f64) / t0.elapsed().as_secs_f64()
}

/// A measured rate as the report records it: whole operations per second.
fn rate(x: f64) -> u64 {
    x.round() as u64
}

/// `fast / slow`, rounded to two decimals for the report.
fn speedup(fast: f64, slow: f64) -> f64 {
    (fast / slow * 100.0).round() / 100.0
}

fn bench_tables() -> Json {
    println!("# Mithril table hot path: bucket vs naive ({OPS} ACTs, RFM every {RFM_EVERY})");
    println!(
        "{:>6} {:>18} {:>18} {:>9}",
        "K", "bucket ops/s", "naive ops/s", "speedup"
    );
    Json::arr(TABLE_SIZES.iter().map(|&k| {
        let ops = act_stream(OPS, 4 * k as u64);
        let bucket = measure(OPS, || {
            let mut t = MithrilTable::<u16>::new(k);
            for (i, &r) in ops.iter().enumerate() {
                t.on_activate(r);
                if i % RFM_EVERY == RFM_EVERY - 1 {
                    std::hint::black_box(t.on_rfm());
                }
            }
            std::hint::black_box(t.spread());
        });
        // The naive reference is orders of magnitude slower at large K;
        // shrink its stream so the report still finishes quickly.
        let naive_ops = if k >= 512 { OPS / 10 } else { OPS };
        let stream = &ops[..naive_ops];
        let naive = measure(naive_ops, || {
            let mut t = NaiveTable::new(k);
            for (i, &r) in stream.iter().enumerate() {
                t.on_activate(r);
                if i % RFM_EVERY == RFM_EVERY - 1 {
                    std::hint::black_box(t.on_rfm());
                }
            }
            std::hint::black_box(t.spread());
        });
        println!(
            "{k:>6} {bucket:>18.0} {naive:>18.0} {:>8.2}x",
            bucket / naive
        );
        json_obj! {
            "k": k,
            "bucket_ops_per_sec": rate(bucket),
            "naive_ops_per_sec": rate(naive),
            "speedup": speedup(bucket, naive),
        }
    }))
}

/// Host rates of repeated runs: their median, min and max.
struct Spread {
    median: f64,
    min: f64,
    max: f64,
}

impl Spread {
    fn of(mut rates: Vec<f64>) -> Self {
        rates.sort_by(f64::total_cmp);
        Self {
            median: rates[rates.len() / 2],
            min: rates[0],
            max: rates[rates.len() - 1],
        }
    }

    fn json(&self) -> Json {
        json_obj! {
            "median": rate(self.median),
            "min": rate(self.min),
            "max": rate(self.max),
        }
    }
}

/// End-to-end simulator activation rate (full System: cores + LLC +
/// controllers + DRAM) under `scheduler` over `SIM_RUNS` runs, plus the
/// run's deterministic ACT count and read-latency percentiles. Unlike the
/// bucket-table rows this measures the whole simulation loop, so it is
/// the number sweeps and fault campaigns actually experience.
fn sim_acts_per_sec(scheme: Scheme, scheduler: SchedulerKind) -> (Spread, u64, u64, u64) {
    let mut rates = Vec::with_capacity(SIM_RUNS);
    let mut acts = 0;
    let (mut p50, mut p99) = (0, 0);
    for _ in 0..SIM_RUNS {
        let mut cfg = SystemConfig::table_iii();
        cfg.cores = 4;
        cfg.scheme = scheme;
        cfg.scheduler = scheduler;
        let mut sys = System::new(cfg, mix_high(4, 11)).expect("valid scheme config");
        let t0 = Instant::now();
        let m = sys.run(SIM_INSTS, u64::MAX);
        rates.push(m.counters.acts as f64 / t0.elapsed().as_secs_f64());
        acts = m.counters.acts;
        p50 = m.read_latency.p50();
        p99 = m.read_latency.p99();
    }
    (Spread::of(rates), acts, p50, p99)
}

fn bench_sim() -> Json {
    println!("\n# End-to-end simulator rate: event-driven vs naive-rescan controller core");
    println!(
        "# (full System loop, 4 cores, mix-high; acts/s of simulated activations, \
         median [min, max] of {SIM_RUNS} runs)"
    );
    println!(
        "{:>10} {:>30} {:>30} {:>9} {:>12} {:>12}",
        "scheme", "event acts/s", "naive acts/s", "speedup", "read p50", "read p99"
    );
    let schemes: [(&'static str, Scheme); 3] = [
        ("none", Scheme::None),
        (
            "mithril",
            Scheme::Mithril {
                rfm_th: 64,
                ad_th: None,
                plus: false,
            },
        ),
        ("para", Scheme::Para),
    ];
    let show = |s: &Spread| format!("{:.0} [{:.0}, {:.0}]", s.median, s.min, s.max);
    Json::arr(schemes.iter().map(|&(name, scheme)| {
        let (event, acts, p50, p99) = sim_acts_per_sec(scheme, SchedulerKind::EventQueue);
        let (naive, ..) = sim_acts_per_sec(scheme, SchedulerKind::NaiveRescan);
        println!(
            "{name:>10} {:>30} {:>30} {:>8.2}x {p50:>10}ps {p99:>10}ps",
            show(&event),
            show(&naive),
            event.median / naive.median
        );
        json_obj! {
            "scheme": name,
            "event_acts_per_sec": event.json(),
            "naive_acts_per_sec": naive.json(),
            "speedup": speedup(event.median, naive.median),
            "acts": acts,
            "read_p50_ps": p50,
            "read_p99_ps": p99,
        }
    }))
}

/// One observed simulation (ring sinks + sampler) under the default
/// mithril scheme: exact per-kind event counts, the number of time-series
/// rows sampled, and observed vs unobserved acts/s. The counts are
/// deterministic (fixed seed); the rates are measurements.
fn bench_obs() -> Json {
    let scheme = Scheme::Mithril {
        rfm_th: 64,
        ad_th: None,
        plus: false,
    };
    let mut cfg = SystemConfig::table_iii();
    cfg.cores = 4;
    cfg.scheme = scheme;
    let mut sys =
        System::with_obs(cfg, mix_high(4, 11), ObsConfig::default()).expect("valid scheme config");
    let t0 = Instant::now();
    let m = sys.run(SIM_INSTS, u64::MAX);
    let observed = m.counters.acts as f64 / t0.elapsed().as_secs_f64();
    let capture = sys.take_obs();
    let plain = sim_acts_per_sec(scheme, SchedulerKind::EventQueue).0.median;
    let counts = capture.total_counts();
    let series_rows: usize = capture.channels.iter().map(|c| c.rows.len()).sum();

    println!("\n# Observability summary: one observed run (mithril, 4 cores, mix-high)");
    println!(
        "# observed {observed:.0} acts/s vs plain {plain:.0} acts/s ({:.1}% overhead); \
         {series_rows} series rows",
        (1.0 - observed / plain) * 100.0,
    );
    for (name, c) in KIND_NAMES.iter().zip(counts.iter()) {
        if *c > 0 {
            println!("{name:>20} {c:>12}");
        }
    }
    json_obj! {
        "counts": kind_counts_tree(&counts),
        "series_rows": series_rows,
        "observed_acts_per_sec": rate(observed),
        "plain_acts_per_sec": rate(plain),
    }
}

fn main() -> ExitCode {
    let mut out_path = String::from("BENCH_table.json");
    let mut with_obs = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let value = (arg == "--out").then(|| args.next()).flatten();
        match (arg.as_str(), value) {
            ("--obs", None) => with_obs = true,
            ("--out", Some(path)) => out_path = path,
            _ => {
                eprintln!("usage: perf_report [--out PATH] [--obs]");
                return ExitCode::from(2);
            }
        }
    }

    // Members evaluate in order, so the sections print in report order.
    let mut report = json_obj! {
        "format_version": mithril_obs::FORMAT_VERSION,
        "ops_per_run": OPS,
        "rfm_every": RFM_EVERY,
        "mithril_table": bench_tables(),
        "sim_insts_per_core": SIM_INSTS,
        "sim_runs": SIM_RUNS,
        "sim_ops_per_sec": bench_sim(),
    };
    if with_obs {
        report.push("obs_summary", bench_obs());
    }
    if let Err(e) = std::fs::write(&out_path, report.render_report()) {
        eprintln!("cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("\nwrote {out_path}");
    ExitCode::SUCCESS
}
