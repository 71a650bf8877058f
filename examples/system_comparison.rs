//! Full-system scheme comparison: a miniature of paper Figs. 10/11.
//!
//! Runs the 16-core Table-III system on a memory-intensive mix and under a
//! multi-sided Row Hammer attack, for every mitigation scheme, and prints
//! normalized IPC, energy overhead and safety results. The scheme catalog
//! comes from the shared scenario registry, and the whole scheme × workload
//! grid fans out on the runner's sharded engine.
//!
//! ```text
//! cargo run --release --example system_comparison            # quick
//! cargo run --release --example system_comparison -- 200000  # longer
//! ```

use mithril_repro::runner::engine::{default_threads, run_sharded, PoolConfig};
use mithril_repro::runner::scenarios::all_schemes;
use mithril_repro::sim::{Metrics, System, SystemConfig};
use mithril_repro::workloads::{attack_mix, mix_high, ThreadSet};

fn main() {
    let insts: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(60_000);
    let flip_th = 3_125;
    let rfm_th = 64;

    let mut cfg = SystemConfig::table_iii();
    cfg.flip_th = flip_th;

    let schemes = all_schemes(rfm_th, 6);

    type Maker = fn(&SystemConfig) -> ThreadSet;
    let workloads: [(&str, Maker); 2] = [
        ("mix-high (benign)", |c| mix_high(c.cores, 42)),
        ("mix-high + 32-sided attack", |c| {
            attack_mix("multi", c.cores, c.mapping(), 42)
        }),
    ];

    // One grid cell per (workload, scheme); each runs independently on the
    // shard pool, results come back in input order.
    let grid: Vec<(usize, &str, mithril_repro::sim::Scheme)> = workloads
        .iter()
        .enumerate()
        .flat_map(|(w, _)| schemes.iter().map(move |&(name, s)| (w, name, s)))
        .collect();
    let pool = PoolConfig {
        threads: default_threads(),
        shard_size: 1,
    };
    let results: Vec<Option<Metrics>> = run_sharded(&grid, pool, 42, |&(w, _, scheme), _| {
        let mut cfg = cfg;
        cfg.scheme = scheme;
        let mut sys = System::new(cfg, workloads[w].1(&cfg)).ok()?;
        // Cap simulated time so a throttled attacker thread cannot
        // stretch the run (and its refresh energy) unboundedly.
        Some(sys.run(insts, insts * 16_000))
    });

    for (w, (workload_name, _)) in workloads.iter().enumerate() {
        println!("== {workload_name}: FlipTH {flip_th}, {insts} insts/core ==");
        println!(
            "{:<12} {:>9} {:>10} {:>8} {:>12} {:>8}",
            "scheme", "IPC(norm)", "energy", "RFMs", "disturb(max)", "flips"
        );
        let mut baseline: Option<&Metrics> = None;
        for (i, &(gw, name, _)) in grid.iter().enumerate() {
            if gw != w {
                continue;
            }
            let Some(m) = &results[i] else {
                println!("{name:<12} unavailable (infeasible at FlipTH {flip_th})");
                continue;
            };
            let b = *baseline.get_or_insert(m);
            println!(
                "{name:<12} {:>8.1}% {:>9.2}% {:>8} {:>12} {:>8}",
                m.normalized_ipc(b) * 100.0,
                (m.relative_energy(b) - 1.0) * 100.0,
                m.counters.rfm_commands,
                m.max_disturbance,
                m.flips
            );
        }
        println!();
    }
    println!("Deterministic schemes keep max disturbance < FlipTH with 0 flips;");
    println!("the unprotected baseline's disturbance keeps growing under attack.");
}
