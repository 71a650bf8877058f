//! The paper's workload mixes (Section VI-A): 16-thread multi-programmed
//! mixes and multi-threaded kernels.

use crate::attacks::{BlockHammerAdversarial, ChannelPinned, RowAttack};
use crate::kernels::{
    BlockedFft, CacheResident, PageRankLike, PointerChase, RadixPartition, RandomAccess,
    StreamSweep,
};
use crate::op::TraceOp;
use crate::TraceSource;
use mithril_baselines::{BlockHammer, BlockHammerConfig};
use mithril_dram::{ChannelId, Ddr5Timing};
use mithril_memctrl::AddressMapping;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// One hardware thread's trace source.
pub struct Thread {
    name: String,
    source: Box<dyn TraceSource + Send>,
}

impl Thread {
    /// Wraps a trace source as a thread.
    pub fn new(name: impl Into<String>, source: Box<dyn TraceSource + Send>) -> Self {
        Self {
            name: name.into(),
            source,
        }
    }

    /// The thread's workload name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The next trace operation.
    pub fn next_op(&mut self) -> TraceOp {
        self.source.next_op()
    }

    /// Unwraps the thread back into its trace source (used by trace
    /// capture to interpose a recorder between the source and the core).
    pub fn into_source(self) -> Box<dyn TraceSource + Send> {
        self.source
    }
}

impl std::fmt::Debug for Thread {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Thread").field("name", &self.name).finish()
    }
}

/// A named set of threads forming one experiment workload.
///
/// The name is an owned `String` so dynamically-named sets — trace
/// replays (`trace:<source>`), externally ingested captures — fit the
/// same type as the built-in generator mixes.
#[derive(Debug)]
pub struct ThreadSet {
    /// Workload-set name (e.g. `mix-high`).
    pub name: String,
    /// The threads, index = hardware thread id.
    pub threads: Vec<Thread>,
}

/// `mix-high`: 16 memory-intensive traces (paper: memory-intensive SPEC
/// CPU2017 SimPoints).
pub fn mix_high(cores: usize, seed: u64) -> ThreadSet {
    let mut threads = Vec::with_capacity(cores);
    for t in 0..cores {
        let s = seed.wrapping_mul(1000).wrapping_add(t as u64);
        let source: Box<dyn TraceSource + Send> = match t % 4 {
            0 => Box::new(StreamSweep::new(4, 1 << 20, s)),
            1 => Box::new(RandomAccess::new(1 << 21, s)),
            2 => Box::new(StreamSweep::new(2, 1 << 22, s)),
            _ => Box::new(PointerChase::new(1 << 20, s)),
        };
        threads.push(Thread::new(format!("mix-high/{t}"), source));
    }
    ThreadSet {
        name: "mix-high".into(),
        threads,
    }
}

/// `mix-blend`: a random blend of intensive and cache-resident traces.
pub fn mix_blend(cores: usize, seed: u64) -> ThreadSet {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut threads = Vec::with_capacity(cores);
    for t in 0..cores {
        let s = seed.wrapping_mul(2000).wrapping_add(t as u64);
        let source: Box<dyn TraceSource + Send> = match rng.random_range(0..5u32) {
            0 => Box::new(StreamSweep::new(3, 1 << 20, s)),
            1 => Box::new(RandomAccess::new(1 << 20, s)),
            2 => Box::new(CacheResident::new(1 << 12, 1 << 20, s)),
            3 => Box::new(CacheResident::new(1 << 13, 1 << 21, s)),
            _ => Box::new(PointerChase::new(1 << 18, s)),
        };
        threads.push(Thread::new(format!("mix-blend/{t}"), source));
    }
    ThreadSet {
        name: "mix-blend".into(),
        threads,
    }
}

/// Multi-threaded kernels (paper: FFT and RADIX from SPLASH-2, PageRank
/// from GAP): all threads run the same kernel over a shared footprint,
/// partitioned by thread.
///
/// # Panics
///
/// Panics if `kernel` is not one of `"fft"`, `"radix"`, `"pagerank"`.
pub fn multithreaded(kernel: &str, cores: usize, seed: u64) -> ThreadSet {
    let mut threads = Vec::with_capacity(cores);
    for t in 0..cores {
        let s = seed.wrapping_mul(3000).wrapping_add(t as u64);
        let source: Box<dyn TraceSource + Send> = match kernel {
            "fft" => Box::new(BlockedFft::new(1 << 18, t as u64)),
            "radix" => Box::new(RadixPartition::new(1 << 20, 256, s)),
            "pagerank" => Box::new(PageRankLike::new(1 << 20, s)),
            other => panic!("unknown multithreaded kernel {other}"),
        };
        threads.push(Thread::new(format!("{kernel}/{t}"), source));
    }
    ThreadSet {
        name: kernel.to_string(),
        threads,
    }
}

/// The attack mixes of Section VI-A: one attacker thread plus 15 benign
/// threads from `mix-high`; the attacker aims at channel 0 of whatever
/// hierarchy `mapping` describes.
///
/// `attack` selects the pattern:
/// * `"double"` — double-sided hammer;
/// * `"multi"` — 32-row multi-sided hammer;
/// * `"bh-adversarial"` — BlockHammer CBF-pollution pattern.
///
/// For the *profiled* CBF-collision pattern of Fig. 10(c) see
/// [`bh_cover_attack_mix`]; for the cross-channel interference scenario
/// see [`channel_interference_mix`].
///
/// # Panics
///
/// Panics if `attack` is unknown or `cores` is zero.
pub fn attack_mix(attack: &str, cores: usize, mapping: AddressMapping, seed: u64) -> ThreadSet {
    assert!(cores > 0, "cores must be non-zero");
    let mut set = mix_high(cores, seed);
    let ch0 = ChannelId(0);
    let attacker: (Box<dyn TraceSource + Send>, &'static str) = match attack {
        "double" => (
            Box::new(RowAttack::double_sided(mapping, ch0, 0, 1000)),
            "attack-double",
        ),
        "multi" => (
            Box::new(RowAttack::multi_sided(mapping, ch0, 0, 5000, 32)),
            "attack-multi",
        ),
        "bh-adversarial" => (
            Box::new(BlockHammerAdversarial::new(mapping, 128)),
            "attack-bh-adversarial",
        ),
        other => panic!("unknown attack {other}"),
    };
    set.threads[cores - 1] = Thread::new(attacker.1, attacker.0);
    set.name = match attack {
        "double" => "mix-high+double-sided",
        "multi" => "mix-high+multi-sided",
        _ => "mix-high+bh-adversarial",
    }
    .to_string();
    set
}

/// The *profiled* BlockHammer-adversarial mix of paper Fig. 10(c): the
/// attacker replicates BlockHammer's per-bank CBF hash functions, picks
/// benign-hot victim rows, and hammers rows that cover every CBF bucket of
/// each victim (see [`BlockHammer::collision_cover_rows`]). Benign threads
/// then get their hot rows blacklisted and throttled.
///
/// `victim_rows` are the rows to blacklist in each of the first
/// `victim_banks` banks (channel 0). `flip_th` and `timing` pick the
/// BlockHammer configuration whose CBF hash functions the cover rows
/// collide under; the blacklist threshold's scale does not move the
/// cover, so one mix serves a BlockHammer instance at any scale.
///
/// # Panics
///
/// Panics if `cores` is zero or `flip_th` has no BlockHammer config.
pub fn bh_cover_attack_mix(
    cores: usize,
    mapping: AddressMapping,
    flip_th: u64,
    timing: &Ddr5Timing,
    victim_rows: &[u64],
    victim_banks: usize,
    seed: u64,
) -> ThreadSet {
    assert!(cores > 0, "cores must be non-zero");
    let cfg = BlockHammerConfig::for_flip_threshold(flip_th, timing);
    let rows_per_bank = mapping.geometry().rows_per_bank;
    let mut targets = Vec::new();
    for bank in 0..victim_banks.min(mapping.geometry().banks_total()) {
        for &victim in victim_rows {
            for r in BlockHammer::collision_cover_rows(&cfg, bank, victim, rows_per_bank) {
                targets.push((bank, r));
            }
        }
    }
    let mut set = mix_high(cores, seed);
    set.threads[cores - 1] = Thread::new(
        "attack-bh-cover",
        Box::new(RowAttack::new(mapping, ChannelId(0), targets, "bh-cover")),
    );
    set.name = "mix-high+bh-cover".to_string();
    set
}

/// Shifts a trace source's line addresses by a fixed offset, giving each
/// interference victim its own footprint ([`StreamSweep`]'s array bases
/// are stream-indexed, not seed-indexed, so identical sweeps on different
/// threads would otherwise alias in the shared LLC and starve the victim
/// channel of real traffic).
struct OffsetLines<S> {
    inner: S,
    offset_lines: u64,
}

impl<S: TraceSource> TraceSource for OffsetLines<S> {
    fn next_op(&mut self) -> TraceOp {
        let mut op = self.inner.next_op();
        op.line_addr = op.line_addr.wrapping_add(self.offset_lines);
        op
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// The cross-channel interference mix: a multi-sided hammer saturates
/// channel 0 while every benign thread streams on channel 1 (or, with more
/// than two channels, round-robins over the non-attacked channels). Under
/// a per-channel mitigation the victim channel's IPC and energy must stay
/// at baseline: RFM/ARR head-of-line blocking on the hammered channel
/// cannot cross the channel boundary.
///
/// # Panics
///
/// Panics if `cores` is zero or `mapping` has fewer than two channels.
pub fn channel_interference_mix(cores: usize, mapping: AddressMapping, seed: u64) -> ThreadSet {
    assert!(cores > 0, "cores must be non-zero");
    let channels = mapping.channels();
    assert!(
        channels >= 2,
        "channel interference needs at least two channels"
    );
    let mut threads = Vec::with_capacity(cores);
    for t in 0..cores - 1 {
        let s = seed.wrapping_mul(4000).wrapping_add(t as u64);
        let victim_channel = ChannelId(1 + t % (channels - 1));
        // Disjoint 8M-line (512 MB) footprints per victim so every thread
        // streams real DRAM traffic instead of hitting the LLC lines its
        // twin fetched.
        let sweep = OffsetLines {
            inner: StreamSweep::new(4, 1 << 20, s),
            offset_lines: (t as u64) * (8 << 20),
        };
        threads.push(Thread::new(
            format!("stream-victim/{t}@{victim_channel}"),
            Box::new(ChannelPinned::new(sweep, mapping, victim_channel)),
        ));
    }
    threads.push(Thread::new(
        "attack-multi@ch0",
        Box::new(RowAttack::multi_sided(mapping, ChannelId(0), 0, 5000, 32)),
    ));
    ThreadSet {
        name: "channel-interference".into(),
        threads,
    }
}

/// The noisy-neighbor mix — the multi-tenant QoS scenario: one hammering
/// tenant (a 32-row multi-sided hammer on channel 0) co-located with
/// `cores - 1` latency-sensitive victims that *share* the attacker's
/// channels (unlike [`channel_interference_mix`], whose victims are
/// pinned off the attacked channel). Victims alternate pointer-chasing
/// and random-access tenants on disjoint footprints, the
/// dependent-load profiles whose p99 read latency a cloud operator
/// watches; the attacker burns shared RFM/mitigation budget and bank
/// turnaround on the banks the victims also need. Reports for this mix
/// are read through the per-tenant `per_core` and `qos` sections.
///
/// # Panics
///
/// Panics if `cores` is zero.
pub fn noisy_neighbor_mix(cores: usize, mapping: AddressMapping, seed: u64) -> ThreadSet {
    assert!(cores > 0, "cores must be non-zero");
    let mut threads = Vec::with_capacity(cores);
    for t in 0..cores - 1 {
        let s = seed.wrapping_mul(5000).wrapping_add(t as u64);
        // Disjoint 8M-line (512 MB) footprints per victim so tenants
        // don't serve each other's lines out of the shared LLC.
        let offset_lines = (t as u64) * (8 << 20);
        let source: Box<dyn TraceSource + Send> = if t % 2 == 0 {
            Box::new(OffsetLines {
                inner: PointerChase::new(1 << 20, s),
                offset_lines,
            })
        } else {
            Box::new(OffsetLines {
                inner: RandomAccess::new(1 << 21, s),
                offset_lines,
            })
        };
        threads.push(Thread::new(format!("tenant-victim/{t}"), source));
    }
    threads.push(Thread::new(
        "tenant-hammer",
        Box::new(RowAttack::multi_sided(mapping, ChannelId(0), 0, 5000, 32)),
    ));
    ThreadSet {
        name: "noisy-neighbor".into(),
        threads,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mithril_dram::Geometry;

    #[test]
    fn mixes_have_requested_core_count() {
        assert_eq!(mix_high(16, 1).threads.len(), 16);
        assert_eq!(mix_blend(8, 1).threads.len(), 8);
        assert_eq!(multithreaded("fft", 4, 1).threads.len(), 4);
    }

    #[test]
    fn mixes_are_deterministic() {
        let mut a = mix_blend(4, 42);
        let mut b = mix_blend(4, 42);
        for t in 0..4 {
            for _ in 0..50 {
                assert_eq!(a.threads[t].next_op(), b.threads[t].next_op());
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = mix_high(2, 1);
        let mut b = mix_high(2, 2);
        let ops_a: Vec<_> = (0..50).map(|_| a.threads[1].next_op().line_addr).collect();
        let ops_b: Vec<_> = (0..50).map(|_| b.threads[1].next_op().line_addr).collect();
        assert_ne!(ops_a, ops_b);
    }

    #[test]
    fn attack_mix_replaces_last_thread() {
        let m = AddressMapping::new(Geometry::table_iii_system());
        let mut set = attack_mix("double", 16, m, 7);
        assert_eq!(set.threads.len(), 16);
        assert_eq!(set.threads[15].name(), "attack-double");
        assert!(set.threads[15].next_op().uncacheable);
        assert!(!set.threads[0].next_op().uncacheable);
    }

    #[test]
    fn multithreaded_threads_share_kernel_space() {
        let mut set = multithreaded("pagerank", 4, 3);
        let tag0 = set.threads[0].next_op().line_addr >> 40;
        let tag1 = set.threads[1].next_op().line_addr >> 40;
        assert_eq!(tag0, tag1, "threads must share the kernel footprint");
    }

    #[test]
    fn bh_cover_mix_targets_cover_rows() {
        let m = AddressMapping::new(Geometry::table_iii_system());
        let t = Ddr5Timing::ddr5_4800();
        let mut set = bh_cover_attack_mix(4, m, 6_250, &t, &[0, 249], 4, 3);
        assert_eq!(set.threads[3].name(), "attack-bh-cover");
        let op = set.threads[3].next_op();
        assert!(op.uncacheable);
        assert_eq!(
            m.map_line(op.line_addr).channel,
            mithril_dram::ChannelId(0),
            "attacker stays on channel 0"
        );
    }

    #[test]
    fn channel_interference_separates_channels() {
        let m = AddressMapping::new(Geometry::table_iii_system());
        let mut set = channel_interference_mix(4, m, 5);
        assert_eq!(set.name, "channel-interference");
        assert_eq!(set.threads.len(), 4);
        // Attacker is the last thread, pinned to channel 0.
        let op = set.threads[3].next_op();
        assert!(op.uncacheable);
        assert_eq!(m.map_line(op.line_addr).channel, ChannelId(0));
        // Every benign thread stays off channel 0.
        for t in 0..3 {
            for _ in 0..64 {
                let op = set.threads[t].next_op();
                assert!(!op.uncacheable);
                assert_ne!(m.map_line(op.line_addr).channel, ChannelId(0));
            }
        }
    }

    #[test]
    fn noisy_neighbor_mix_shares_the_attacked_channel() {
        let m = AddressMapping::new(Geometry::table_iii_system());
        let mut set = noisy_neighbor_mix(4, m, 5);
        assert_eq!(set.name, "noisy-neighbor");
        assert_eq!(set.threads.len(), 4);
        assert_eq!(set.threads[3].name(), "tenant-hammer");
        let op = set.threads[3].next_op();
        assert!(op.uncacheable);
        assert_eq!(m.map_line(op.line_addr).channel, ChannelId(0));
        // Victims are cacheable tenants that do land on the attacked
        // channel too — co-location is the point of the scenario.
        let mut victim_on_ch0 = false;
        for t in 0..3 {
            for _ in 0..128 {
                let op = set.threads[t].next_op();
                assert!(!op.uncacheable);
                victim_on_ch0 |= m.map_line(op.line_addr).channel == ChannelId(0);
            }
        }
        assert!(victim_on_ch0, "victims must share channel 0");
    }

    #[test]
    fn noisy_neighbor_mix_is_deterministic() {
        let m = AddressMapping::new(Geometry::table_iii_system());
        let mut a = noisy_neighbor_mix(4, m, 42);
        let mut b = noisy_neighbor_mix(4, m, 42);
        for t in 0..4 {
            for _ in 0..50 {
                assert_eq!(a.threads[t].next_op(), b.threads[t].next_op());
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least two channels")]
    fn interference_needs_multi_channel() {
        let m = AddressMapping::new(Geometry::default());
        let _ = channel_interference_mix(4, m, 1);
    }

    #[test]
    #[should_panic(expected = "unknown attack")]
    fn unknown_attack_panics() {
        let m = AddressMapping::new(Geometry::default());
        let _ = attack_mix("nope", 4, m, 0);
    }

    #[test]
    #[should_panic(expected = "unknown multithreaded kernel")]
    fn unknown_kernel_panics() {
        let _ = multithreaded("nope", 4, 0);
    }
}
