//! Shared last-level cache: set-associative, LRU, write-back/write-allocate
//! with MSHR merging. Each set is a most-recently-used-first list of tag
//! words; see "LLC set layout" in ARCHITECTURE.md.

use mithril_fasthash::FastHashMap;

/// Bytes per cache line.
const LINE_BYTES: usize = 64;

/// LLC geometry, in 64-byte lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LlcConfig {
    /// Total capacity in bytes (paper: 16 MB).
    pub size_bytes: usize,
    /// Associativity (ways).
    pub ways: usize,
}

impl Default for LlcConfig {
    fn default() -> Self {
        Self {
            size_bytes: 16 << 20,
            ways: 16,
        }
    }
}

/// Result of an LLC access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LlcAccess {
    /// The line was present.
    Hit,
    /// The line is absent: a fill must be requested from memory.
    Miss,
    /// The line is absent but a fill is already outstanding (MSHR hit):
    /// no new memory request is needed.
    MergedMiss,
}

/// The shared last-level cache.
///
/// # Example
///
/// ```
/// use mithril_sim::{Llc, LlcAccess, LlcConfig};
///
/// let mut llc = Llc::new(LlcConfig::default());
/// assert_eq!(llc.access(100, false), LlcAccess::Miss);
/// assert_eq!(llc.access(100, false), LlcAccess::MergedMiss);
/// llc.fill(100);
/// assert_eq!(llc.access(100, false), LlcAccess::Hit);
/// ```
#[derive(Debug)]
pub struct Llc {
    /// Every set's lines in one flat arena, `ways` words per set, of which
    /// the first `lens[set]` are live, most recently used first. A word is
    /// `tag << 1 | dirty` with `tag = line_addr >> set_shift`: the set
    /// index is the arena position, so 8 bytes hold a whole line and one
    /// 16-way set spans two host cache lines.
    lines: Vec<u64>,
    lens: Vec<u8>,
    set_mask: u64,
    set_shift: u32,
    ways: usize,
    /// Outstanding fills: line address → dirty-on-fill flag.
    mshr: FastHashMap<u64, bool>,
    hits: u64,
    misses: u64,
}

impl Llc {
    /// Builds an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the set count is not a power of two of at least 2 (the
    /// dropped set bit is what makes room for the dirty bit), or ways is
    /// zero or above 255.
    pub fn new(config: LlcConfig) -> Self {
        assert!(config.ways > 0, "ways must be non-zero");
        let sets = config.size_bytes / LINE_BYTES / config.ways;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        assert!(sets >= 2, "at least two sets are needed");
        assert!(config.ways <= u8::MAX as usize, "ways must fit in u8");
        Self {
            lines: vec![0; sets * config.ways],
            lens: vec![0; sets],
            set_mask: sets as u64 - 1,
            set_shift: sets.trailing_zeros(),
            ways: config.ways,
            mshr: FastHashMap::default(),
            hits: 0,
            misses: 0,
        }
    }

    /// The set of `line_addr` and its tag.
    #[inline]
    fn locate(&self, line_addr: u64) -> (usize, u64) {
        (
            (line_addr & self.set_mask) as usize,
            line_addr >> self.set_shift,
        )
    }

    /// Accesses `line_addr`; a write marks the line dirty.
    pub fn access(&mut self, line_addr: u64, is_write: bool) -> LlcAccess {
        let (set, tag) = self.locate(line_addr);
        let base = set * self.ways;
        let live = &mut self.lines[base..base + self.lens[set] as usize];
        if let Some(pos) = live.iter().position(|&w| w >> 1 == tag) {
            // Move the hit to the front, keeping the rest in MRU order.
            let hit = live[pos] | u64::from(is_write);
            live.copy_within(..pos, 1);
            live[0] = hit;
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

    /// Completes the fill of `line_addr`; returns the dirty line address
    /// that must be written back, if an eviction produced one.
    pub fn fill(&mut self, line_addr: u64) -> Option<u64> {
        let dirty = self.mshr.remove(&line_addr).unwrap_or(false);
        let (set, tag) = self.locate(line_addr);
        let base = set * self.ways;
        let len = self.lens[set] as usize;
        if self.lines[base..base + len].iter().any(|&w| w >> 1 == tag) {
            return None; // already filled (rare double-fill)
        }
        let mut writeback = None;
        let kept = if len == self.ways {
            // Evict the least recently used way: the last one.
            let victim = self.lines[base + len - 1];
            if victim & 1 == 1 {
                writeback = Some(((victim >> 1) << self.set_shift) | set as u64);
            }
            len - 1
        } else {
            self.lens[set] += 1;
            len
        };
        self.lines.copy_within(base..base + kept, base + 1);
        self.lines[base] = (tag << 1) | u64::from(dirty);
        writeback
    }

    /// Miss rate over all accesses so far.
    pub fn miss_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }

    /// `(hits, misses)` counters.
    pub fn counters(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Llc {
        // 4 sets × 2 ways × 64 B = 512 B.
        Llc::new(LlcConfig {
            size_bytes: 512,
            ways: 2,
        })
    }

    #[test]
    fn hit_after_fill() {
        let mut c = small();
        assert_eq!(c.access(5, false), LlcAccess::Miss);
        assert_eq!(c.fill(5), None);
        assert_eq!(c.access(5, false), LlcAccess::Hit);
    }

    #[test]
    fn mshr_merges_duplicate_misses() {
        let mut c = small();
        assert_eq!(c.access(5, false), LlcAccess::Miss);
        assert_eq!(c.access(5, false), LlcAccess::MergedMiss);
        assert_eq!(c.access(5, true), LlcAccess::MergedMiss);
        // The merged write makes the filled line dirty.
        c.fill(5);
        // Evict it by filling two more lines in the same set (stride 4).
        c.access(9, false);
        c.fill(9);
        c.access(13, false);
        let wb = c.fill(13);
        assert_eq!(wb, Some(5), "dirty merged line must write back");
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = small();
        for addr in [0u64, 4] {
            c.access(addr, false);
            c.fill(addr);
        }
        // Touch 0 so 4 is LRU.
        c.access(0, false);
        c.access(8, false);
        c.fill(8);
        assert_eq!(c.access(0, false), LlcAccess::Hit);
        assert_eq!(c.access(4, false), LlcAccess::Miss);
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut c = small();
        for addr in [0u64, 4, 8] {
            c.access(addr, false);
            assert_eq!(c.fill(addr), None);
        }
    }

    #[test]
    fn dirty_eviction_writes_back() {
        let mut c = small();
        c.access(0, true);
        c.fill(0);
        c.access(4, false);
        c.fill(4);
        c.access(8, false);
        assert_eq!(c.fill(8), Some(0));
    }

    #[test]
    fn miss_rate_tracks_counters() {
        let mut c = small();
        c.access(0, false);
        c.fill(0);
        c.access(0, false);
        assert!((c.miss_rate() - 0.5).abs() < 1e-12);
        assert_eq!(c.counters(), (1, 1));
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = small();
        c.access(0, false);
        c.fill(0);
        c.access(0, true); // dirty now
        c.access(4, false);
        c.fill(4);
        c.access(8, false);
        assert_eq!(c.fill(8), Some(0));
    }
}
