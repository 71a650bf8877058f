//! Trace round-trip: record a registry workload to an MTRC capture,
//! inspect it, replay it through the system under Mithril, and verify the
//! replay is bit-identical to live generation.
//!
//! ```text
//! cargo run --release --example trace_roundtrip
//! ```
//!
//! The same flow is available from the command line:
//!
//! ```text
//! trace record --workload mix-high --cores 4 --insts 20000 --out mix.mtrc
//! trace stat   --trace mix.mtrc
//! trace replay --trace mix.mtrc --scheme mithril --metrics-only
//! ```

use std::io::BufWriter;

use mithril_repro::runner::engine::PoolConfig;
use mithril_repro::runner::report::metrics_only_json;
use mithril_repro::runner::scenarios::{workload, SweepSpec};
use mithril_repro::runner::{engine, run_sweep};
use mithril_repro::sim::{Scheme, SystemConfig};
use mithril_repro::trace::{
    record_thread_set, stats_from_reader, DamagePolicy, MtrcReader, MtrcWriter, TraceHeader,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let base_seed = 7u64;
    let cores = 4usize;
    let insts = 10_000u64;

    // 1. Record: render `mix-high` to a capture, seeding the generators
    //    with the item seed the sweep engine will assign the replay
    //    scenario at position (shard 0, offset 0) under `base_seed`.
    let mut cfg = SystemConfig::table_iii();
    cfg.cores = cores;
    let mut set = workload("mix-high", cores, &cfg, engine::item_seed(base_seed, 0, 0));
    let path = std::env::temp_dir().join(format!("mithril_roundtrip_{}.mtrc", std::process::id()));
    let header = TraceHeader {
        geometry: cfg.geometry,
        cores,
        base_seed,
        insts_per_core: insts,
        source: "mix-high".into(),
    };
    let mut writer = MtrcWriter::new(BufWriter::new(std::fs::File::create(&path)?), &header)?;
    let ops = record_thread_set(&mut set, insts, &mut writer)?;
    writer.finish()?;
    let bytes = std::fs::metadata(&path)?.len();
    println!(
        "recorded {ops} ops ({cores} cores x {insts} insts) -> {bytes} bytes, {:.2} B/op",
        bytes as f64 / ops as f64
    );

    // 2. Inspect: stream the capture back through the stat collector.
    let reader = MtrcReader::new(std::io::BufReader::new(std::fs::File::open(&path)?))?;
    let (stats, _) = stats_from_reader(reader, 3, DamagePolicy::Strict)?;
    println!(
        "capture touches {} distinct rows; busiest channel serves {} of {} accesses",
        stats.distinct_rows,
        stats.per_channel_accesses.iter().max().unwrap(),
        stats.total_ops
    );
    for h in &stats.hot_rows {
        println!(
            "  hot row ch{} bank{} row{}: {} accesses (tracker view: {})",
            h.channel, h.bank, h.row, h.count, h.tracker_estimate
        );
    }

    // 3. Replay vs live: the same scenario, once from the capture and once
    //    regenerated, must produce byte-identical metrics — at any thread
    //    count.
    let spec = |name: String| SweepSpec {
        geometries: vec![cfg.geometry],
        schemes: vec![(
            "mithril".into(),
            Scheme::Mithril {
                rfm_th: 64,
                ad_th: Some(200),
                plus: false,
            },
        )],
        workloads: vec![name],
        flip_th: 6_250,
        cores,
        insts_per_core: insts,
    };
    let pool = |threads| PoolConfig {
        threads,
        shard_size: 1,
    };
    let live = run_sweep(&spec("mix-high".into()), pool(1), base_seed);
    let replay = run_sweep(
        &spec(format!("trace:{}", path.display())),
        pool(4),
        base_seed,
    );
    let live_json = metrics_only_json(base_seed, &live);
    let replay_json = metrics_only_json(base_seed, &replay);
    std::fs::remove_file(&path).ok();
    assert_eq!(
        live_json, replay_json,
        "replayed metrics must be bit-identical to live generation"
    );
    let m = replay[0].outcome.as_ref().expect("replay ran");
    println!(
        "replay == live: aggregate IPC {:.3}, {} RFMs, {} flips (byte-identical report, 4 threads vs 1)",
        m.aggregate_ipc, m.counters.rfm_commands, m.flips
    );
    Ok(())
}
