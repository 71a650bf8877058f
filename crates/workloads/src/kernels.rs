//! Synthetic application kernels with controlled memory behaviour.
//!
//! Each kernel models the access structure of one of the paper's workload
//! classes (Section VI-A). Intensities (instructions per access) follow
//! SPEC-like ranges: memory-intensive kernels run a handful of instructions
//! per access, cache-friendly ones hundreds.

use crate::op::TraceOp;
use crate::TraceSource;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// Large-object streaming sweep — the `lbm`-style pattern of paper Fig. 8.
///
/// `streams` software streams sweep disjoint large arrays sequentially and
/// in lock-step (reads with a write every few lines), concentrating
/// accesses on a small number of DRAM rows at any instant while covering
/// the whole footprint over time.
#[derive(Debug, Clone)]
pub struct StreamSweep {
    bases: Vec<u64>,
    offsets: Vec<u64>,
    footprint_lines: u64,
    cursor: usize,
    rng: SmallRng,
}

impl StreamSweep {
    /// Creates a sweep of `streams` arrays of `footprint_lines` lines each.
    ///
    /// # Panics
    ///
    /// Panics if `streams` is zero or `footprint_lines` is zero.
    pub fn new(streams: usize, footprint_lines: u64, seed: u64) -> Self {
        assert!(streams > 0, "streams must be non-zero");
        assert!(footprint_lines > 0, "footprint_lines must be non-zero");
        Self {
            // Distinct 16 GiB regions, deliberately *not* row-aligned to
            // each other (offset by 499 rows per stream): concurrent
            // streams conflict in banks/rows like real heap arrays do.
            bases: (0..streams)
                .map(|s| ((s as u64 + 1) << 34) + (s as u64) * 499 * 4096)
                .collect(),
            offsets: vec![0; streams],
            footprint_lines,
            cursor: 0,
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

impl TraceSource for StreamSweep {
    fn next_op(&mut self) -> TraceOp {
        let s = self.cursor;
        // Each stream advances 8 lines before the sweep moves on, so the
        // instantaneous working set is a few rows (Fig. 8(b)).
        let line = self.bases[s] + self.offsets[s];
        self.offsets[s] += 1;
        if self.offsets[s].is_multiple_of(8) {
            self.cursor = (self.cursor + 1) % self.bases.len();
        }
        if self.offsets[s] >= self.footprint_lines {
            self.offsets[s] = 0;
        }
        let is_write = self.offsets[s] % 4 == 3; // ~25% stores, lbm-like
        TraceOp {
            non_mem_insts: 12 + (self.rng.random::<u32>() % 8),
            line_addr: line,
            is_write,
            uncacheable: false,
        }
    }

    fn name(&self) -> &str {
        "stream-sweep"
    }
}

/// Uniform random accesses over a large footprint (GUPS-like, high MPKI).
#[derive(Debug, Clone)]
pub(crate) struct RandomAccess {
    base: u64,
    footprint_lines: u64,
    write_fraction: f64,
    rng: SmallRng,
}

impl RandomAccess {
    /// Creates a random-access kernel over `footprint_lines` lines.
    ///
    /// # Panics
    ///
    /// Panics if `footprint_lines` is zero.
    pub fn new(footprint_lines: u64, seed: u64) -> Self {
        assert!(footprint_lines > 0, "footprint_lines must be non-zero");
        Self {
            base: 0xA << 40,
            footprint_lines,
            write_fraction: 0.3,
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

impl TraceSource for RandomAccess {
    fn next_op(&mut self) -> TraceOp {
        let line = self.base + self.rng.random::<u64>() % self.footprint_lines;
        TraceOp {
            non_mem_insts: 10 + (self.rng.random::<u32>() % 10),
            line_addr: line,
            is_write: self.rng.random::<f64>() < self.write_fraction,
            uncacheable: false,
        }
    }

    fn name(&self) -> &str {
        "random-access"
    }
}

/// Serialized pointer chasing: random lines with long dependent chains
/// (modelled as high per-access instruction counts so a single miss stalls
/// the window).
#[derive(Debug, Clone)]
pub(crate) struct PointerChase {
    base: u64,
    footprint_lines: u64,
    state: u64,
}

impl PointerChase {
    /// Creates a pointer chase over `footprint_lines` lines.
    ///
    /// # Panics
    ///
    /// Panics if `footprint_lines` is zero.
    pub fn new(footprint_lines: u64, seed: u64) -> Self {
        assert!(footprint_lines > 0, "footprint_lines must be non-zero");
        Self {
            base: 0xB << 40,
            footprint_lines,
            state: seed | 1,
        }
    }
}

impl TraceSource for PointerChase {
    fn next_op(&mut self) -> TraceOp {
        // xorshift chain: the next address depends on the previous one.
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        TraceOp {
            non_mem_insts: 24,
            line_addr: self.base + self.state % self.footprint_lines,
            is_write: false,
            uncacheable: false,
        }
    }

    fn name(&self) -> &str {
        "pointer-chase"
    }
}

/// Blocked FFT butterfly passes: per stage, pairs at power-of-two strides.
#[derive(Debug, Clone)]
pub(crate) struct BlockedFft {
    base: u64,
    n_lines: u64,
    stage: u32,
    index: u64,
    pair: bool,
    max_stage: u32,
}

impl BlockedFft {
    /// Creates an FFT over `n_lines` (rounded to a power of two).
    ///
    /// # Panics
    ///
    /// Panics if `n_lines < 2`.
    pub fn new(n_lines: u64, seed: u64) -> Self {
        assert!(n_lines >= 2, "n_lines must be at least 2");
        let n = n_lines.next_power_of_two();
        Self {
            base: (0xC << 40) + (seed << 28),
            n_lines: n,
            stage: 0,
            index: 0,
            pair: false,
            max_stage: n.trailing_zeros(),
        }
    }
}

impl TraceSource for BlockedFft {
    fn next_op(&mut self) -> TraceOp {
        let stride = 1u64 << self.stage;
        let i = self.index;
        // Butterfly partner indices (i, i + stride).
        let addr = if self.pair {
            self.base + ((i + stride) % self.n_lines)
        } else {
            self.base + i
        };
        let op = TraceOp {
            non_mem_insts: 10,
            line_addr: addr,
            is_write: self.pair, // write back the second element
            uncacheable: false,
        };
        if self.pair {
            self.index += 1;
            if self.index.is_multiple_of(stride) {
                self.index += stride; // skip the partner half of the block
            }
            if self.index >= self.n_lines {
                self.index = 0;
                self.stage = (self.stage + 1) % self.max_stage.max(1);
            }
        }
        self.pair = !self.pair;
        op
    }

    fn name(&self) -> &str {
        "fft"
    }
}

/// Radix-sort partitioning: sequential source reads scattered into buckets.
#[derive(Debug, Clone)]
pub(crate) struct RadixPartition {
    src_base: u64,
    bucket_base: u64,
    n_lines: u64,
    buckets: u64,
    cursor: u64,
    bucket_cursor: Vec<u64>,
    rng: SmallRng,
    emit_write: Option<u64>,
}

impl RadixPartition {
    /// Creates a partitioning pass over `n_lines` source lines into
    /// `buckets` buckets.
    ///
    /// # Panics
    ///
    /// Panics if `n_lines` or `buckets` is zero.
    pub fn new(n_lines: u64, buckets: u64, seed: u64) -> Self {
        assert!(n_lines > 0, "n_lines must be non-zero");
        assert!(buckets > 0, "buckets must be non-zero");
        Self {
            src_base: 0xD << 40,
            bucket_base: 0xE << 40,
            n_lines,
            buckets,
            cursor: 0,
            bucket_cursor: vec![0; buckets as usize],
            rng: SmallRng::seed_from_u64(seed),
            emit_write: None,
        }
    }
}

impl TraceSource for RadixPartition {
    fn next_op(&mut self) -> TraceOp {
        if let Some(addr) = self.emit_write.take() {
            return TraceOp {
                non_mem_insts: 4,
                line_addr: addr,
                is_write: true,
                uncacheable: false,
            };
        }
        let src = self.src_base + self.cursor;
        self.cursor = (self.cursor + 1) % self.n_lines;
        // The radix digit scatters the write pseudo-randomly per key.
        let b = (self.rng.random::<u64>()) % self.buckets;
        let slot = self.bucket_cursor[b as usize];
        self.bucket_cursor[b as usize] = slot + 1;
        let span = self.n_lines / self.buckets + 1;
        self.emit_write = Some(self.bucket_base + b * span + slot % span);
        TraceOp {
            non_mem_insts: 8,
            line_addr: src,
            is_write: false,
            uncacheable: false,
        }
    }

    fn name(&self) -> &str {
        "radix"
    }
}

/// PageRank-style graph traversal: power-law (Zipf-ish) vertex reads plus
/// sequential edge-list streaming.
#[derive(Debug, Clone)]
pub(crate) struct PageRankLike {
    vertex_base: u64,
    edge_base: u64,
    vertices: u64,
    edge_cursor: u64,
    edges: u64,
    rng: SmallRng,
    emit_vertex: bool,
}

impl PageRankLike {
    /// Creates a traversal over `vertices` vertex lines.
    ///
    /// # Panics
    ///
    /// Panics if `vertices` is zero.
    pub fn new(vertices: u64, seed: u64) -> Self {
        assert!(vertices > 0, "vertices must be non-zero");
        Self {
            vertex_base: 0xF << 40,
            edge_base: 0x10 << 40,
            vertices,
            edge_cursor: 0,
            edges: vertices * 8,
            rng: SmallRng::seed_from_u64(seed),
            emit_vertex: false,
        }
    }

    /// Approximate Zipf sample over `[0, n)` via inverse-power transform.
    fn zipf(&mut self, n: u64) -> u64 {
        let u: f64 = self.rng.random::<f64>().max(1e-12);
        // Exponent ~0.8: heavy head, long tail.
        let x = (u.powf(-0.8) - 1.0) / (1e4f64.powf(0.8) - 1.0).max(1e-12);
        ((x * n as f64) as u64).min(n - 1)
    }
}

impl TraceSource for PageRankLike {
    fn next_op(&mut self) -> TraceOp {
        if self.emit_vertex {
            self.emit_vertex = false;
            let v = self.zipf(self.vertices);
            TraceOp {
                non_mem_insts: 9,
                line_addr: self.vertex_base + v,
                is_write: false,
                uncacheable: false,
            }
        } else {
            self.emit_vertex = true;
            let e = self.edge_cursor;
            self.edge_cursor = (self.edge_cursor + 1) % self.edges;
            TraceOp {
                non_mem_insts: 6,
                line_addr: self.edge_base + e,
                is_write: false,
                uncacheable: false,
            }
        }
    }

    fn name(&self) -> &str {
        "pagerank"
    }
}

/// A mostly cache-resident workload: small hot footprint, high instruction
/// count per access (the "randomly selected" non-intensive SPEC traces of
/// mix-blend).
#[derive(Debug, Clone)]
pub(crate) struct CacheResident {
    base: u64,
    hot_lines: u64,
    cold_lines: u64,
    rng: SmallRng,
}

impl CacheResident {
    /// Creates a kernel whose hot set is `hot_lines` lines with occasional
    /// excursions into `cold_lines`.
    ///
    /// # Panics
    ///
    /// Panics if `hot_lines` or `cold_lines` is zero.
    pub fn new(hot_lines: u64, cold_lines: u64, seed: u64) -> Self {
        assert!(
            hot_lines > 0 && cold_lines > 0,
            "line counts must be non-zero"
        );
        Self {
            base: 0x11 << 40,
            hot_lines,
            cold_lines,
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

impl TraceSource for CacheResident {
    fn next_op(&mut self) -> TraceOp {
        let cold = self.rng.random::<f64>() < 0.02;
        let line = if cold {
            self.base + self.hot_lines + self.rng.random::<u64>() % self.cold_lines
        } else {
            self.base + self.rng.random::<u64>() % self.hot_lines
        };
        TraceOp {
            non_mem_insts: 80 + (self.rng.random::<u32>() % 160),
            line_addr: line,
            is_write: self.rng.random::<f64>() < 0.2,
            uncacheable: false,
        }
    }

    fn name(&self) -> &str {
        "cache-resident"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn take(src: &mut dyn TraceSource, n: usize) -> Vec<TraceOp> {
        (0..n).map(|_| src.next_op()).collect()
    }

    #[test]
    fn sweep_is_sequential_within_streams() {
        let mut s = StreamSweep::new(2, 1 << 16, 1);
        let ops = take(&mut s, 64);
        let sequential = ops
            .windows(2)
            .filter(|w| w[1].line_addr == w[0].line_addr + 1)
            .count();
        assert!(sequential > 40, "sequential pairs = {sequential}");
    }

    #[test]
    fn sweep_wraps_at_footprint() {
        let mut s = StreamSweep::new(1, 16, 1);
        let ops = take(&mut s, 64);
        assert!(ops.iter().all(|o| o.line_addr - (1 << 34) < 16));
    }

    #[test]
    fn random_access_covers_footprint() {
        let mut r = RandomAccess::new(1024, 2);
        let ops = take(&mut r, 4000);
        let unique: HashSet<u64> = ops.iter().map(|o| o.line_addr).collect();
        assert!(unique.len() > 800, "covered {} lines", unique.len());
    }

    #[test]
    fn pointer_chase_is_deterministic() {
        let mut a = PointerChase::new(4096, 9);
        let mut b = PointerChase::new(4096, 9);
        for _ in 0..100 {
            assert_eq!(a.next_op(), b.next_op());
        }
    }

    #[test]
    fn fft_produces_strided_pairs() {
        let mut f = BlockedFft::new(1 << 12, 0);
        // Skip to stage 1+ by consuming stage 0.
        let ops = take(&mut f, 4 * (1 << 12));
        // Pairs alternate read (even slots) / write (odd slots).
        assert!(ops[0].line_addr != ops[1].line_addr);
        assert!(!ops[0].is_write && ops[1].is_write);
    }

    #[test]
    fn radix_alternates_read_scatter_write() {
        let mut r = RadixPartition::new(1 << 14, 64, 3);
        let ops = take(&mut r, 100);
        for pair in ops.chunks(2) {
            assert!(!pair[0].is_write);
            assert!(pair[1].is_write);
        }
    }

    #[test]
    fn pagerank_head_is_hot() {
        let mut p = PageRankLike::new(1 << 16, 4);
        let ops = take(&mut p, 20_000);
        let vertex_ops: Vec<u64> = ops
            .iter()
            .filter(|o| o.line_addr >= 0xF << 40 && o.line_addr < 0x10 << 40)
            .map(|o| o.line_addr - (0xF << 40))
            .collect();
        assert!(!vertex_ops.is_empty());
        let head_hits = vertex_ops.iter().filter(|&&v| v < (1 << 16) / 100).count();
        assert!(
            head_hits as f64 / vertex_ops.len() as f64 > 0.2,
            "power-law head too cold: {head_hits}/{}",
            vertex_ops.len()
        );
    }

    #[test]
    fn cache_resident_is_low_intensity() {
        let mut c = CacheResident::new(1 << 12, 1 << 20, 5);
        let ops = take(&mut c, 1000);
        let avg: f64 = ops.iter().map(|o| o.non_mem_insts as f64).sum::<f64>() / ops.len() as f64;
        assert!(avg > 60.0, "avg inter-access instructions = {avg}");
    }

    #[test]
    fn kernels_use_disjoint_address_spaces() {
        let mut srcs: Vec<Box<dyn TraceSource>> = vec![
            Box::new(StreamSweep::new(2, 1024, 0)),
            Box::new(RandomAccess::new(1024, 0)),
            Box::new(PointerChase::new(1024, 0)),
            Box::new(RadixPartition::new(1024, 8, 0)),
            Box::new(PageRankLike::new(1024, 0)),
            Box::new(CacheResident::new(256, 1024, 0)),
        ];
        let mut spaces: Vec<HashSet<u64>> = Vec::new();
        for s in srcs.iter_mut() {
            let tags: HashSet<u64> = (0..200).map(|_| s.next_op().line_addr >> 40).collect();
            spaces.push(tags);
        }
        for i in 0..spaces.len() {
            for j in i + 1..spaces.len() {
                assert!(
                    spaces[i].is_disjoint(&spaces[j]),
                    "kernels {i} and {j} share address space"
                );
            }
        }
    }
}
