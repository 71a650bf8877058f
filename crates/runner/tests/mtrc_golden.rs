//! The MTRC v1 golden capture: `trace record --workload mix-high --cores 4
//! --insts 6000 --seed 11`, committed as a fixture. The writer must keep
//! producing it byte for byte and the reader must keep decoding it to the
//! live generators' ops, so any change to the codec that moves a format
//! byte fails here rather than in a downstream capture.

use mithril_dram::Geometry;
use mithril_fasthash::splitmix64_seed;
use mithril_runner::scenarios::workload;
use mithril_sim::SystemConfig;
use mithril_trace::{read_all, record_thread_set, MtrcWriter, TraceHeader};
use mithril_workloads::{ThreadSet, TraceOp};

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../trace/tests/fixtures/mix-high-c4-i6000-s11.mtrc"
);
const CORES: usize = 4;
const INSTS: u64 = 6_000;
const BASE_SEED: u64 = 11;

fn header() -> TraceHeader {
    TraceHeader {
        geometry: Geometry::table_iii_system(),
        cores: CORES,
        base_seed: BASE_SEED,
        insts_per_core: INSTS,
        source: "mix-high".into(),
    }
}

/// The generators `trace record` seeds for this capture.
fn live() -> ThreadSet {
    let mut cfg = SystemConfig::table_iii();
    cfg.cores = CORES;
    cfg.geometry = Geometry::table_iii_system();
    cfg.flip_th = 6_250;
    workload("mix-high", CORES, &cfg, splitmix64_seed(BASE_SEED, 0, 0))
}

fn fixture() -> Vec<u8> {
    std::fs::read(FIXTURE).expect("read the golden MTRC fixture")
}

#[test]
fn writer_reproduces_the_golden_capture_byte_for_byte() {
    let mut w = MtrcWriter::new(Vec::new(), &header()).unwrap();
    record_thread_set(&mut live(), INSTS, &mut w).unwrap();
    let bytes = w.finish().unwrap();
    let golden = fixture();
    assert_eq!(bytes.len(), golden.len(), "capture length moved");
    let first_diff = bytes.iter().zip(&golden).position(|(a, b)| a != b);
    assert_eq!(first_diff, None, "capture bytes moved");
}

#[test]
fn golden_capture_decodes_to_the_live_generators_ops() {
    let (h, per_core) = read_all(&fixture()[..]).unwrap();
    assert_eq!(h, header());
    let mut set = live();
    for (core, ops) in per_core.iter().enumerate() {
        let thread = &mut set.threads[core];
        let want: Vec<TraceOp> = (0..ops.len()).map(|_| thread.next_op()).collect();
        assert_eq!(ops, &want, "core {core} decoded ops differ from live");
        // The capture stops at the first op that reaches the budget.
        let insts: u64 = ops.iter().map(TraceOp::instructions).sum();
        let last = ops.last().map_or(0, TraceOp::instructions);
        assert!(insts >= INSTS && insts - last < INSTS, "core {core}");
    }
}
