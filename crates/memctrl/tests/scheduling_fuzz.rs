//! Property/fuzz tests for the memory controller's scheduling legality.
//!
//! The bank and rank state machines panic on any DDR timing violation
//! (illegal ACT/PRE/column/REF), so feeding the controller arbitrary
//! request streams is itself a strong test: any scheduling bug that emits
//! a command too early aborts the run.

use mithril_dram::{Ddr5Timing, DramDevice, Geometry, NoMitigation, TimePs, PS_PER_US};
use mithril_memctrl::{
    Completion, MappedAddr, McConfig, MemRequest, MemoryController, NoMcMitigation, RfmMode,
};
use proptest::prelude::*;

fn drain(mc: &mut MemoryController, end: TimePs) -> Vec<Completion> {
    let mut out = Vec::new();
    mc.advance_until_into(end, &mut out);
    out
}

fn controller(rfm_mode: RfmMode, rfm_th: u64) -> MemoryController {
    let geometry = Geometry::default();
    let device = DramDevice::new(geometry, Ddr5Timing::ddr5_4800(), 100_000, 1, |_| {
        Box::new(NoMitigation)
    });
    let cfg = McConfig {
        rfm_mode,
        rfm_th,
        ..Default::default()
    };
    MemoryController::new(device, cfg, Box::new(NoMcMitigation))
}

/// Arbitrary request batches: (bank, row, col, is_write, thread, gap_us).
fn batches() -> impl Strategy<Value = Vec<(usize, u64, u64, bool, usize, u64)>> {
    prop::collection::vec(
        (
            0usize..32,
            0u64..512,
            0u64..128,
            any::<bool>(),
            0usize..16,
            0u64..5,
        ),
        1..200,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// No timing violation and no lost requests, with RFM disabled.
    #[test]
    fn all_requests_complete_without_violations(reqs in batches()) {
        let mut mc = controller(RfmMode::Disabled, 64);
        let mut now = 0u64;
        for (i, &(bank, row, col, is_write, thread, gap)) in reqs.iter().enumerate() {
            now += gap * PS_PER_US / 4;
            let addr = MappedAddr { channel: mithril_dram::ChannelId(0), bank, row, col };
            let req = if is_write {
                MemRequest::write(i as u64, addr, thread, now)
            } else {
                MemRequest::read(i as u64, addr, thread, now)
            };
            mc.enqueue(req);
        }
        // Long enough for any queue to drain incl. refresh interference.
        let done = drain(&mut mc, now + 2_000 * PS_PER_US);
        prop_assert_eq!(done.len(), reqs.len(), "requests lost");
        prop_assert_eq!(mc.pending(), 0);
        // Read data can never appear before the minimal pipeline latency.
        let t = Ddr5Timing::ddr5_4800();
        for c in done.iter().filter(|c| !c.is_write) {
            prop_assert!(c.at >= t.trcd + t.tcl + t.tbl);
        }
    }

    /// With RFM enabled, the RAA discipline holds: every bank receives one
    /// RFM per RFMTH activations (within one interval of slack), under any
    /// request mix.
    #[test]
    fn rfm_cadence_holds_under_fuzz(reqs in batches(), rfm_th in 4u64..32) {
        let mut mc = controller(RfmMode::Standard, rfm_th);
        for (i, &(bank, row, col, is_write, thread, _)) in reqs.iter().enumerate() {
            let addr = MappedAddr { channel: mithril_dram::ChannelId(0), bank, row, col };
            let req = if is_write {
                MemRequest::write(i as u64, addr, thread, 0)
            } else {
                MemRequest::read(i as u64, addr, thread, 0)
            };
            mc.enqueue(req);
        }
        drain(&mut mc, 4_000 * PS_PER_US);
        prop_assert_eq!(mc.pending(), 0);
        let c = mc.device().counters();
        // Total RFMs bounded by total ACTs / RFMTH (+1 per bank slack is
        // impossible to exceed because counters reset on issue).
        prop_assert!(c.rfm_commands <= c.acts / rfm_th);
    }

    /// Auto-refresh cadence survives arbitrary traffic: over a fixed
    /// horizon the controller issues every due REF (one per tREFI).
    #[test]
    fn refresh_cadence_survives_traffic(reqs in batches()) {
        let mut mc = controller(RfmMode::Disabled, 64);
        for (i, &(bank, row, col, _, thread, _)) in reqs.iter().enumerate() {
            let addr = MappedAddr { channel: mithril_dram::ChannelId(0), bank, row, col };
            mc.enqueue(MemRequest::read(i as u64, addr, thread, 0));
        }
        let t = Ddr5Timing::ddr5_4800();
        let horizon = 20 * t.trefi;
        drain(&mut mc, horizon);
        // All 20 due refreshes happened (the 20th lands exactly at the
        // horizon; allow it to be pending).
        prop_assert!(mc.stats().refs >= 19, "refs = {}", mc.stats().refs);
    }
}
