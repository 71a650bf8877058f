//! Quickstart: configure Mithril for a DRAM bank, hammer it, and watch the
//! protection work.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use mithril_repro::core::{MithrilConfig, MithrilScheme};
use mithril_repro::dram::{AttackHarness, Ddr5Timing};
use mithril_repro::sim::{Metrics, QosPolicy, Scheme, System, SystemConfig};
use mithril_repro::workloads::{mix_high, noisy_neighbor_mix};

/// Worst victim read p99 of a noisy-neighbor run (the hammering tenant
/// sits on the highest core index; everyone else is a victim).
fn victim_p99(m: &Metrics) -> u64 {
    let hammer = m.per_core.iter().map(|(core, _)| core).max();
    m.per_core
        .iter()
        .filter(|(core, _)| Some(*core) != hammer)
        .map(|(_, c)| c.read_latency.p99())
        .max()
        .unwrap_or(0)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Pick the protection target: the Row Hammer threshold of the DRAM
    //    part (FlipTH) and the RFM cadence the memory controller will be
    //    programmed with (RFMTH).
    let timing = Ddr5Timing::ddr5_4800();
    let flip_th = 6_250;
    let rfm_th = 128;

    // 2. Solve the minimal Mithril table for that target. The solver picks
    //    the smallest Nentry whose Theorem-1 bound M stays below FlipTH/2.
    let config = MithrilConfig::for_flip_threshold(flip_th, rfm_th, &timing)?;
    println!("Solved configuration:");
    println!("  Nentry        = {} entries", config.nentry);
    println!(
        "  counter width = {} bits (wrapping)",
        config.counter_bits(&timing)
    );
    println!("  table size    = {:.2} KiB per bank", config.table_kib());
    println!(
        "  bound M       = {:.0} (< FlipTH/2 = {})",
        config.bound(&timing),
        flip_th / 2
    );

    // 3. Put the engine in a bank and run a double-sided hammer for a full
    //    32 ms refresh window at the maximum activation rate. The harness
    //    models the DDR5 timing budget exactly; the oracle tracks the true
    //    disturbance of every victim row.
    let engine = MithrilScheme::new(config);
    let mut bank = AttackHarness::new(timing, Box::new(engine), rfm_th, flip_th);
    let started = std::time::Instant::now();
    let mut i = 0u64;
    while bank.try_activate(if i.is_multiple_of(2) { 999 } else { 1001 }) {
        i += 1;
    }
    let elapsed = started.elapsed();

    // 4. Inspect the outcome.
    let oracle = bank.oracle();
    println!("\nAfter one tREFW of double-sided hammering (rows 999/1001):");
    println!("  activations issued    = {i}");
    println!("  RFMs issued           = {}", bank.rfms_issued());
    println!(
        "  preventive refreshes  = {}",
        bank.counters().preventive_rows
    );
    println!(
        "  worst victim count    = {} (FlipTH = {flip_th})",
        oracle.max_disturbance()
    );
    println!("  bit flips             = {}", oracle.flips().len());
    assert!(oracle.flips().is_empty(), "Mithril must prevent all flips");
    println!("\nNo victim reached FlipTH — the deterministic guarantee held.");

    // 5. Simulation throughput: every ACT updates the Stream-Summary table,
    //    the oracle and the timing model, so this is the end-to-end hot
    //    path (see ARCHITECTURE.md; perfbench's `harness-adversarial`
    //    workload measures it as the median of repeated runs).
    let per_sec = i as f64 / elapsed.as_secs_f64().max(1e-9);
    println!(
        "\nSimulated {i} activations in {:.1} ms — {:.2}M activations/sec",
        elapsed.as_secs_f64() * 1e3,
        per_sec / 1e6
    );

    // 6. Full-system rate: the number above is the per-bank attack harness;
    //    the figure sweeps actually experience is the full System loop
    //    (cores + LLC + controllers + DRAM) on the event-driven controller
    //    core. perfbench's `host_macts_per_s` tracks this as the median
    //    of repeated runs.
    let mut cfg = SystemConfig::table_iii();
    cfg.cores = 4;
    cfg.scheme = Scheme::None;
    let mut sys = System::new(cfg, mix_high(4, 11))?;
    let started = std::time::Instant::now();
    let metrics = sys.run(60_000, u64::MAX);
    let dt = started.elapsed().as_secs_f64().max(1e-9);
    println!(
        "\nEnd-to-end system rate (event-driven controller core, 4 cores):\n  \
         {:.2}M simulated activations/sec, {:.2}M instructions/sec\n  \
         read latency p50 = {} ps, p99 = {} ps ({} reads histogrammed)",
        metrics.counters.acts as f64 / dt / 1e6,
        metrics.total_insts as f64 / dt / 1e6,
        metrics.read_latency.p50(),
        metrics.read_latency.p99(),
        metrics.read_latency.count()
    );

    // 7. Beyond synthetic generators: capture and replay traces with the
    //    `trace` CLI (see examples/trace_roundtrip.rs for the library API).
    println!("\nTrace capture & replay quickstart:");
    println!("  trace record  --workload mix-high --cores 4 --insts 20000 --out mix.mtrc");
    println!("  trace stat    --trace mix.mtrc --top 10");
    println!("  trace replay  --trace mix.mtrc --scheme mithril --metrics-only");
    println!("  trace convert --in ramulator.txt --out ext.mtrc --in-format ramulator");
    println!("  (binary: cargo run --release -p mithril-runner --bin trace -- ...)");

    // 8. Observability: attach structured event logs and cycle-domain time
    //    series to any sweep or replay — bit-identical at any --threads,
    //    and free when not attached (see ARCHITECTURE.md, Observability).
    println!("\nObservability quickstart:");
    println!(
        "  sweep --smoke --obs obs_out/          # events.jsonl + series.csv + obs_counts.json"
    );
    println!("  trace replay --trace mix.mtrc --obs obs_out/");
    println!("  obs report baseline.json candidate.json --fail-on-regression 5");

    // 9. Multi-tenant QoS: co-locate three latency-sensitive tenants with
    //    a hammering neighbor and let the controller throttle the suspect
    //    (see "Multi-tenant QoS & throttling" in ARCHITECTURE.md; report
    //    fields in docs/REPORT_SCHEMA.md).
    let run_noisy = |qos| -> Result<Metrics, Box<dyn std::error::Error>> {
        let mut cfg = SystemConfig::table_iii();
        cfg.cores = 4;
        cfg.scheme = Scheme::Mithril {
            rfm_th: 64,
            ad_th: None,
            plus: false,
        };
        cfg.qos = qos;
        let set = noisy_neighbor_mix(4, cfg.mapping(), 1);
        let mut sys = System::new(cfg, set)?;
        Ok(sys.run(20_000, u64::MAX))
    };
    let off = run_noisy(QosPolicy::Off)?;
    let on = run_noisy(QosPolicy::Throttle(Default::default()))?;
    println!(
        "\nNoisy neighbor (1 hammer + 3 victims, mithril): victim p99 {} ps \
         without QoS -> {} ps with QoS, flips {} = {}",
        victim_p99(&off),
        victim_p99(&on),
        off.flips,
        on.flips
    );
    println!("  full campaign: sweep --qos --smoke   (BENCH_qos.json, off/on pairs)");
    println!("  walkthrough:   cargo run --release --example noisy_neighbor");
    Ok(())
}
