//! Allocation discipline on the per-ACT hot path, pinned by counting.
//!
//! A counting global allocator sees every heap allocation the process
//! makes. The file holds exactly one `#[test]`, so no other test thread can
//! allocate while a measured region runs, and the count stays exact.
//!
//! Pinned here (see "Allocation discipline on the hot path" in
//! ARCHITECTURE.md):
//! - The oracle walks the blast radius in place.
//! - An `AttackHarness` keeps its row side flat: its oracle's per-row
//!   counts and its Mithril table's per-row index, 4 B per row each, are
//!   allocated on its first ACT, one allocation apiece, not when it is
//!   built.
//! - `System` recycles the emptied miss-waiter lists.
//! - An all-bank REF returns its row range instead of a list.
//!
//! The same allocator also counts requested bytes, which pins the LLC
//! model's footprint: one 8-byte tag word per line plus one length byte
//! per set (see "LLC set layout" in ARCHITECTURE.md). It subtracts freed
//! bytes too, which pins the live footprint of a filled Mithril table
//! (see "Hashing" in ARCHITECTURE.md): its row index grows on demand and
//! must stay within what the pre-sized hash map it replaced held.

use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::sync::atomic::{AtomicU64, Ordering};

use mithril_repro::core::{MithrilConfig, MithrilScheme, MithrilTable};
use mithril_repro::dram::{AttackHarness, Ddr5Timing};
use mithril_repro::sim::{Llc, LlcConfig, Scheme, System, SystemConfig};
use mithril_repro::workloads::mix_high;

/// Counts allocations (including reallocations) and the bytes they
/// request, tracks the bytes live (requested minus freed), and forwards
/// every call to the system allocator.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    LIVE.fetch_add(bytes as u64, Ordering::Relaxed);
}

fn free(bytes: usize) {
    LIVE.fetch_sub(bytes as u64, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        SystemAlloc.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        SystemAlloc.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        free(layout.size());
        SystemAlloc.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        free(layout.size());
        SystemAlloc.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

fn bytes() -> u64 {
    BYTES.load(Ordering::Relaxed)
}

fn live() -> u64 {
    LIVE.load(Ordering::Relaxed)
}

/// `Nentry` of the Mithril+ configuration the `System` runs below use
/// (FlipTH 6,250, RFM_TH 64, AdTH 200), and the live heap bytes of a
/// table of that size with every entry occupied.
fn table_footprint() -> (usize, u64) {
    let t = Ddr5Timing::ddr5_4800();
    let nentry = MithrilConfig::solve(6_250, 64, 1, Some(200), &t)
        .unwrap()
        .nentry;
    let before = live();
    let mut table: MithrilTable = MithrilTable::new(nentry);
    for row in 0..nentry as u64 {
        table.on_activate(1_000 + 2 * row);
    }
    let held = live() - before;
    assert_eq!(table.len(), nentry);
    drop(table);
    (nentry, held)
}

/// Bytes requested by building the Table III LLC, and its line and set
/// counts.
fn llc_footprint() -> (u64, u64, u64) {
    let config = LlcConfig::default();
    let lines = (config.size_bytes / 64) as u64;
    let sets = lines / config.ways as u64;
    let before = bytes();
    let llc = Llc::new(config);
    let made = bytes() - before;
    drop(llc);
    (made, lines, sets)
}

/// Bytes requested by building a Mithril engine alone, then by building
/// an engine and a default-sized harness around it, then the allocations
/// and bytes of the harness's first ACT.
fn harness_first_act() -> (u64, u64, u64, u64) {
    let t = Ddr5Timing::ddr5_4800();
    let cfg = MithrilConfig::for_flip_threshold(6_250, 64, &t).unwrap();
    let before = bytes();
    drop(MithrilScheme::new(cfg));
    let engine = bytes() - before;
    let before = bytes();
    let mut h = AttackHarness::new(t, Box::new(MithrilScheme::new(cfg)), 64, 6_250);
    let built = bytes() - before;
    let (allocs_before, bytes_before) = (allocs(), bytes());
    assert!(h.try_activate(1_000));
    (
        engine,
        built,
        allocs() - allocs_before,
        bytes() - bytes_before,
    )
}

/// Allocations and ACTs of a 32-sided hammer on a Mithril bank over one
/// full tREFW window.
fn harness_hammer() -> (u64, u64) {
    let t = Ddr5Timing::ddr5_4800();
    let cfg = MithrilConfig::for_flip_threshold(6_250, 64, &t).unwrap();
    let mut h = AttackHarness::new(t, Box::new(MithrilScheme::new(cfg)), 64, 6_250);
    let aggressors: Vec<u64> = (0..32).map(|i| 1_000 + 2 * i).collect();
    let before = allocs();
    let mut acts = 0u64;
    while h.try_activate(aggressors[acts as usize % aggressors.len()]) {
        acts += 1;
    }
    let made = allocs() - before;
    assert!(h.oracle().flips().is_empty(), "Mithril let a victim flip");
    (made, acts)
}

/// Allocations and ACTs of a warmed-up four-core mix-high run on Mithril+.
fn system_continuation() -> (u64, u64) {
    let mut cfg = SystemConfig::table_iii();
    cfg.cores = 4;
    cfg.flip_th = 6_250;
    cfg.scheme = Scheme::Mithril {
        rfm_th: 64,
        ad_th: Some(200),
        plus: true,
    };
    let mut sys = System::new(cfg, mix_high(4, 7)).unwrap();
    let warm = sys.run(400_000, u64::MAX);
    let before = allocs();
    let cont = sys.run(1_600_000, u64::MAX);
    let made = allocs() - before;
    assert!(cont.total_insts >= 4 * 1_600_000, "the run stalled");
    (made, cont.counters.acts - warm.counters.acts)
}

#[test]
fn per_act_hot_path_does_not_allocate() {
    // Measure both before asserting, so a failure reports both counts.
    let (harness_allocs, harness_acts) = harness_hammer();
    let (engine_bytes, built_bytes, first_act_allocs, first_act_bytes) = harness_first_act();
    let (system_allocs, system_acts) = system_continuation();
    let (llc_bytes, llc_lines, llc_sets) = llc_footprint();
    let (nentry, table_bytes) = table_footprint();
    assert!(
        harness_acts > 500_000,
        "one tREFW is ~590k ACTs, got {harness_acts}"
    );
    assert!(
        system_acts > 100_000,
        "the continuation issued only {system_acts} ACTs"
    );
    let report = format!(
        "harness: {harness_allocs} allocations over {harness_acts} ACTs (limit 1 per 10,000); \
         System: {system_allocs} allocations over {system_acts} ACTs (limit 1 per 1,000)"
    );
    assert!(harness_allocs * 10_000 < harness_acts, "{report}");
    let rows = <AttackHarness>::DEFAULT_ROWS;
    assert!(
        built_bytes <= engine_bytes + 1_024,
        "building a {rows}-row Mithril harness requested {built_bytes} B, its engine alone \
         {engine_bytes} B (limit 1 KiB more: no per-row storage)"
    );
    assert_eq!(
        (first_act_allocs, first_act_bytes),
        (2, 2 * 4 * rows),
        "the first harness ACT must allocate 4 B per row twice, once for the oracle's \
         counts and once for the table's index"
    );
    assert!(system_allocs * 1_000 < system_acts, "{report}");
    assert!(
        llc_bytes <= 8 * llc_lines + llc_sets,
        "the {llc_lines}-line LLC requested {llc_bytes} B (limit 8 B per line + 1 B per set)"
    );
    assert_eq!(nentry, 225, "the Mithril+ configuration changed");
    assert!(
        table_bytes <= 18_190,
        "a full {nentry}-entry table holds {table_bytes} live heap bytes (limit 18,190 B)"
    );
}
