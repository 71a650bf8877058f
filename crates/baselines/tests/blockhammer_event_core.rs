//! Differential check of the event-driven scheduler core against the
//! naive rescan core under real BlockHammer throttling, with a CBF epoch
//! short enough that several swaps (which clear every bank's blacklist at
//! once) land inside the run. Both cores must issue the identical command
//! stream and agree on every statistic.

use mithril_baselines::{BlockHammer, BlockHammerConfig};
use mithril_dram::{Ddr5Timing, DramDevice, Geometry, NoMitigation, PS_PER_US};
use mithril_memctrl::{
    Completion, CoreStats, MappedAddr, McConfig, MemRequest, MemoryController, SchedulerKind,
};

/// BlockHammer with a 40 µs CBF epoch (a swap every 20 µs), a low
/// blacklist threshold and a 500 ns throttle delay.
fn short_epoch_config() -> BlockHammerConfig {
    let t = Ddr5Timing::ddr5_4800();
    BlockHammerConfig {
        cbf_counters: 256,
        cbf_hashes: 4,
        nbl: 8,
        flip_th: 1_000,
        t_cbf: 40 * PS_PER_US,
        trc: t.trc,
        t_delay: 500_000,
    }
}

/// Runs `kind` over a multi-bank hammer: threads 0 and 1 keep
/// alternating aggressor rows queued on banks 0..4 (faster than the
/// throttle lets them issue), threads 2 and 3 stream benign rows over
/// banks 0..8. BLISS is off, so only the swap signal can invalidate
/// the other banks' cached releases. Returns the drained controller and
/// its completions.
fn run(kind: SchedulerKind) -> (MemoryController, Vec<Completion>) {
    let geometry = Geometry::default();
    let device = DramDevice::new(geometry, Ddr5Timing::ddr5_4800(), 100_000, 1, |_| {
        Box::new(NoMitigation)
    });
    let cfg = McConfig {
        bliss: false,
        ..Default::default()
    };
    let bh = BlockHammer::new(short_epoch_config(), geometry.banks_total());
    let mut mc = MemoryController::with_scheduler(device, cfg, Box::new(bh), kind);
    mc.record_commands(true);
    let mut done = Vec::new();
    let mut id = 0u64;
    let mut now = 0;
    for step in 0..400u64 {
        for k in 0..6u64 {
            let thread = (k % 4) as usize;
            let (bank, row) = if thread < 2 {
                (((step + k) % 4) as usize, 100 + 2 * (k % 2))
            } else {
                (((step + k) % 8) as usize, 1_000 + (step * 7 + k) % 300)
            };
            let addr = MappedAddr {
                channel: mithril_dram::ChannelId(0),
                bank,
                row,
                col: 0,
            };
            mc.enqueue(MemRequest::read(id, addr, thread, now));
            id += 1;
        }
        now += PS_PER_US / 4;
        mc.advance_until_into(now, &mut done);
    }
    mc.advance_until_into(now + 1_000 * PS_PER_US, &mut done);
    assert_eq!(mc.pending(), 0, "{kind:?} core lost requests");
    (mc, done)
}

#[test]
fn blockhammer_swaps_keep_cores_decision_identical() {
    let (mut event, done_event) = run(SchedulerKind::EventQueue);
    let (mut naive, done_naive) = run(SchedulerKind::NaiveRescan);

    assert!(
        CoreStats::total(&event.stats().per_core).throttled_acts > 0,
        "BlockHammer must defer ACTs (vacuous agreement otherwise)"
    );
    // BlockHammer's release generation is its next swap time, which
    // starts at tCBF/2 and advances by tCBF/2 per swap.
    let t_cbf = short_epoch_config().t_cbf;
    assert!(
        event.mitigation().release_generation() >= 3 * t_cbf / 2,
        "at least two CBF swaps must land inside the run"
    );

    assert_eq!(done_event, done_naive, "completion streams diverge");
    assert_eq!(event.stats(), naive.stats(), "controller stats diverge");
    assert_eq!(
        event.device().counters(),
        naive.device().counters(),
        "device counters diverge"
    );
    let log_event = event.take_command_log();
    let log_naive = naive.take_command_log();
    assert_eq!(log_event.len(), log_naive.len(), "command counts diverge");
    for (i, (e, n)) in log_event.iter().zip(&log_naive).enumerate() {
        assert_eq!(e, n, "command {i} diverges");
    }
}
