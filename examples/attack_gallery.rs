//! Attack gallery: run the paper's attack patterns against Mithril and the
//! unprotected baseline at command level, and report the worst victim
//! disturbance each achieves — then the system-level, channel-aware entry:
//! the cross-channel interference mix (hammer on channel 0, streaming
//! victims on channel 1), with per-channel metrics showing the mitigation
//! work staying on the hammered channel.
//!
//! ```text
//! cargo run --release --example attack_gallery
//! ```

use mithril_repro::core::{MithrilConfig, MithrilScheme};
use mithril_repro::dram::{AttackHarness, Ddr5Timing, DramMitigation, NoMitigation};
use mithril_repro::sim::{CoreStats, Scheme, System, SystemConfig};
use mithril_repro::workloads::channel_interference_mix;

/// Builds the row for attack `name` at step `i`.
fn pattern(name: &str, i: u64) -> u64 {
    match name {
        "single-row" => 1_000,
        "double-sided" => 999 + 2 * (i % 2),
        "multi-sided-32" => 5_000 + 2 * (i % 32),
        "table-thrash" => 100 + 2 * (i % 300), // slightly over Nentry
        "sweep" => (i * 17) % 60_000,          // benign-looking cover traffic
        _ => unreachable!(),
    }
}

fn run(engine: Box<dyn DramMitigation>, rfm_th: u64, flip_th: u64, name: &str) -> (u64, usize) {
    let timing = Ddr5Timing::ddr5_4800();
    let mut h = AttackHarness::new(timing, engine, rfm_th, flip_th);
    let mut i = 0u64;
    while h.try_activate(pattern(name, i)) {
        i += 1;
    }
    (h.oracle().max_disturbance(), h.oracle().flips().len())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let timing = Ddr5Timing::ddr5_4800();
    let flip_th = 6_250;
    let rfm_th = 128;
    let config = MithrilConfig::for_flip_threshold(flip_th, rfm_th, &timing)?;

    println!("One full tREFW window per attack, FlipTH = {flip_th}, RFMTH = {rfm_th}\n");
    println!(
        "{:<16} {:>22} {:>22}",
        "attack", "unprotected max/flips", "mithril max/flips"
    );
    for name in [
        "single-row",
        "double-sided",
        "multi-sided-32",
        "table-thrash",
        "sweep",
    ] {
        let (base_max, base_flips) = run(Box::new(NoMitigation), rfm_th, flip_th, name);
        let (m_max, m_flips) = run(Box::new(MithrilScheme::new(config)), rfm_th, flip_th, name);
        println!(
            "{name:<16} {:>15} / {:<4} {:>15} / {:<4}",
            base_max, base_flips, m_max, m_flips
        );
        assert_eq!(m_flips, 0, "Mithril must stop {name}");
    }
    println!("\nThe focused hammers flip bits within one window when unprotected;");
    println!("under Mithril no pattern flips, and the worst victim stays two");
    println!("orders of magnitude below FlipTH. The table-thrash row shows why");
    println!("the bound must hold for *any* pattern: its per-victim pressure is");
    println!("diffuse, but a smaller table would have let it through.");

    // ------------------------------------------------------------------
    // System-level entry: cross-channel interference. A 32-sided hammer
    // saturates channel 0 while benign threads stream on channel 1; under
    // Mithril the RFM work stays on the hammered channel.
    let mut cfg = SystemConfig::table_iii();
    cfg.cores = 8;
    cfg.flip_th = flip_th;
    cfg.scheme = Scheme::Mithril {
        rfm_th: 64,
        ad_th: Some(200),
        plus: false,
    };
    let threads = channel_interference_mix(cfg.cores, cfg.mapping(), 42);
    let mut sys = System::new(cfg, threads).expect("valid config");
    let m = sys.run(30_000, u64::MAX);
    println!("\nchannel-interference (hammer@ch0, streams@ch1, Mithril):");
    println!(
        "{:<10} {:>8} {:>12} {:>16} {:>14}",
        "channel", "RFMs", "prev. rows", "read latency ns", "disturb(max)"
    );
    for ch in &m.per_channel {
        println!(
            "ch{:<9} {:>8} {:>12} {:>16.1} {:>14}",
            ch.channel.0,
            ch.counters.rfm_commands,
            ch.counters.preventive_rows,
            CoreStats::total(&ch.per_core).read_latency.mean() / 1000.0,
            ch.max_disturbance
        );
    }
    assert_eq!(
        m.flips, 0,
        "Mithril must stop the cross-channel scenario too"
    );
    assert_eq!(
        m.per_channel[1].counters.preventive_rows, 0,
        "victim channel must not pay preventive refreshes"
    );
    println!("\nAll preventive-refresh rows land on the hammered channel; the");
    println!("victims' channel streams at benign latency and its RAA-cadence");
    println!("RFMs find an empty tracker (no preventive rows, no extra energy).");
    Ok(())
}
