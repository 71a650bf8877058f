//! Differential oracle for the LLC model.
//!
//! `StampLlc` below is the stamp-LRU cache the simulator used before the
//! tag-only MRU layout: one `{tag, dirty, lru}` record per line, a global
//! access clock, and eviction of the way with the smallest stamp. Stamps
//! are unique, so most-recently-used order is exactly stamp order and
//! both caches must agree access for access: the same [`LlcAccess`]
//! results, the same writebacks and the same counters.

use std::collections::HashMap;

use mithril_sim::{Llc, LlcAccess, LlcConfig};
use proptest::prelude::*;

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    dirty: bool,
    lru: u64,
}

/// The reference: a set-associative, write-back LRU cache with MSHR
/// merging that keeps full line addresses and LRU stamps.
struct StampLlc {
    lines: Vec<Line>,
    lens: Vec<usize>,
    set_mask: u64,
    ways: usize,
    mshr: HashMap<u64, bool>,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl StampLlc {
    fn new(config: LlcConfig) -> Self {
        let sets = config.size_bytes / 64 / config.ways;
        assert!(sets.is_power_of_two());
        let empty = Line {
            tag: 0,
            dirty: false,
            lru: 0,
        };
        Self {
            lines: vec![empty; sets * config.ways],
            lens: vec![0; sets],
            set_mask: sets as u64 - 1,
            ways: config.ways,
            mshr: HashMap::new(),
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn access(&mut self, line_addr: u64, is_write: bool) -> LlcAccess {
        self.clock += 1;
        let set = (line_addr & self.set_mask) as usize;
        let base = set * self.ways;
        let live = &mut self.lines[base..base + self.lens[set]];
        if let Some(line) = live.iter_mut().find(|l| l.tag == line_addr) {
            line.lru = self.clock;
            line.dirty |= is_write;
            self.hits += 1;
            return LlcAccess::Hit;
        }
        self.misses += 1;
        if let Some(dirty) = self.mshr.get_mut(&line_addr) {
            *dirty |= is_write;
            return LlcAccess::MergedMiss;
        }
        self.mshr.insert(line_addr, is_write);
        LlcAccess::Miss
    }

    fn fill(&mut self, line_addr: u64) -> Option<u64> {
        let dirty = self.mshr.remove(&line_addr).unwrap_or(false);
        let set = (line_addr & self.set_mask) as usize;
        self.clock += 1;
        let base = set * self.ways;
        let len = self.lens[set];
        let live = &self.lines[base..base + len];
        if live.iter().any(|l| l.tag == line_addr) {
            return None;
        }
        let mut writeback = None;
        let slot = if len == self.ways {
            let (victim_idx, victim) = live
                .iter()
                .enumerate()
                .min_by_key(|(_, l)| l.lru)
                .expect("full set");
            if victim.dirty {
                writeback = Some(victim.tag);
            }
            base + victim_idx
        } else {
            self.lens[set] += 1;
            base + len
        };
        self.lines[slot] = Line {
            tag: line_addr,
            dirty,
            lru: self.clock,
        };
        writeback
    }

    fn counters(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

/// One cache operation: a read or write access, or a fill.
#[derive(Debug, Clone, Copy)]
enum Op {
    Access { addr: u64, is_write: bool },
    Fill { addr: u64 },
}

/// Runs `ops` through both caches, asserts they agree step by step and
/// returns the number of writebacks.
fn assert_agree(config: LlcConfig, ops: &[Op]) -> usize {
    let mut llc = Llc::new(config);
    let mut reference = StampLlc::new(config);
    let mut writebacks = 0;
    for (i, &op) in ops.iter().enumerate() {
        match op {
            Op::Access { addr, is_write } => assert_eq!(
                llc.access(addr, is_write),
                reference.access(addr, is_write),
                "access {i} ({op:?}) diverges"
            ),
            Op::Fill { addr } => {
                let wb = llc.fill(addr);
                assert_eq!(
                    wb,
                    reference.fill(addr),
                    "writeback of fill {i} ({op:?}) diverges"
                );
                writebacks += usize::from(wb.is_some());
            }
        }
    }
    assert_eq!(llc.counters(), reference.counters(), "counters diverge");
    writebacks
}

fn config(sets: usize, ways: usize) -> LlcConfig {
    LlcConfig {
        size_bytes: sets * ways * 64,
        ways,
    }
}

/// Random `(kind, pool index)` pairs (kind 0 reads, 1 writes, 2 fills)
/// over a small pool of line addresses, so merged misses, double fills
/// and dirty evictions all happen.
fn raw_ops(pool: u64) -> impl Strategy<Value = Vec<(u8, u64)>> {
    prop::collection::vec((0u8..3, 0..pool), 1..400)
}

/// Places the pool at address 0 or, with `high`, just below `u64::MAX`,
/// where a tag word that dropped an address bit would show.
fn place(raw: &[(u8, u64)], high: bool) -> Vec<Op> {
    raw.iter()
        .map(|&(kind, idx)| {
            let addr = if high { u64::MAX - idx } else { idx };
            match kind {
                2 => Op::Fill { addr },
                _ => Op::Access {
                    addr,
                    is_write: kind == 1,
                },
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// 2–8 sets, 1–8 ways, both ends of the address space.
    #[test]
    fn mru_sets_match_stamp_lru(
        set_bits in 1u32..4,
        ways in 1usize..9,
        high in any::<bool>(),
        raw in raw_ops(40),
    ) {
        assert_agree(config(1 << set_bits, ways), &place(&raw, high));
    }
}

/// A long stream at the Table III associativity: 16-way sets kept full,
/// with the miss-then-fill pattern the system loop produces.
#[test]
fn sixteen_way_miss_fill_stream_matches() {
    let mut ops = Vec::new();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..20_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let addr = (x >> 8) % 160;
        let is_write = x & 3 == 0;
        ops.push(Op::Access { addr, is_write });
        if x & 4 == 0 {
            ops.push(Op::Fill { addr });
        }
    }
    assert!(assert_agree(config(4, 16), &ops) > 0, "no dirty eviction");
}
