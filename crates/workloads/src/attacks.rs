//! Row Hammer attack and adversarial trace generators.
//!
//! Attack threads know the DRAM address mapping (real attackers
//! reverse-engineer it) and emit **uncacheable** accesses so every request
//! reaches DRAM — the flush+hammer pattern. Rows are chosen in *physical*
//! coordinates — channel, bank, row — and inverted to line addresses via
//! [`AddressMapping::line_for`], so the same generator aims correctly on
//! any channel × rank × bank hierarchy.

use crate::op::TraceOp;
use crate::TraceSource;
use mithril_dram::{ChannelId, RowId};
use mithril_memctrl::{AddressMapping, MappedAddr};

/// A generic row-list hammer: cycles through `(bank, row)` targets of one
/// channel at maximum rate.
///
/// Attacks are channel-aware: the mapping routes cache lines over the
/// system's channels, and a physical-row attack inverts that routing so
/// every access lands on its chosen channel.
///
/// The column is a plain bit field of the line address, so a target's
/// line at column `c` is its column-0 line plus `c` column steps; both
/// are precomputed and `next_op` does no division.
#[derive(Debug, Clone)]
pub(crate) struct RowAttack {
    /// Each target's column-0 line.
    lines: Vec<u64>,
    /// The line distance between adjacent columns of a row.
    col_step: u64,
    lines_per_row: u64,
    cursor: usize,
    col: u64,
    name: &'static str,
}

impl RowAttack {
    /// Creates a hammer over explicit `(bank, row)` targets on `channel`.
    ///
    /// # Panics
    ///
    /// Panics if `targets` is empty, or `channel` or any target is out of
    /// range for the mapping's geometry.
    pub fn new(
        mapping: AddressMapping,
        channel: ChannelId,
        targets: Vec<(usize, RowId)>,
        name: &'static str,
    ) -> Self {
        assert!(!targets.is_empty(), "targets must be non-empty");
        assert!(channel.0 < mapping.channels(), "channel out of range");
        let line = |(bank, row), col| {
            mapping.line_for(MappedAddr {
                channel,
                bank,
                row,
                col,
            })
        };
        let lines: Vec<u64> = targets.iter().map(|&t| line(t, 0)).collect();
        let lines_per_row = mapping.geometry().lines_per_row();
        let col_step = if lines_per_row > 1 {
            line(targets[0], 1) - lines[0]
        } else {
            0
        };
        Self {
            lines,
            col_step,
            lines_per_row,
            cursor: 0,
            col: 0,
            name,
        }
    }

    /// The classic double-sided attack: hammers rows `victim−1` and
    /// `victim+1` of `bank` on `channel`, sandwiching one victim.
    ///
    /// # Panics
    ///
    /// Panics if `victim` is 0 or `channel` is out of range.
    pub fn double_sided(
        mapping: AddressMapping,
        channel: ChannelId,
        bank: usize,
        victim: RowId,
    ) -> Self {
        assert!(victim > 0, "victim must have two neighbours");
        Self::new(
            mapping,
            channel,
            vec![(bank, victim - 1), (bank, victim + 1)],
            "double-sided",
        )
    }

    /// The many-sided (TRRespass/Half-Double style) attack of Section
    /// VI-A: hammers `sides` aggressors at rows `base, base+2, base+4, …`
    /// of `bank` on `channel`, sandwiching `sides − 1` victims (the paper
    /// uses 32 victims in total).
    ///
    /// # Panics
    ///
    /// Panics if `sides` is zero or `channel` is out of range.
    pub fn multi_sided(
        mapping: AddressMapping,
        channel: ChannelId,
        bank: usize,
        base: RowId,
        sides: usize,
    ) -> Self {
        assert!(sides > 0, "sides must be non-zero");
        let targets = (0..sides as u64).map(|i| (bank, base + 2 * i)).collect();
        Self::new(mapping, channel, targets, "multi-sided")
    }
}

impl TraceSource for RowAttack {
    fn next_op(&mut self) -> TraceOp {
        let line = self.lines[self.cursor];
        self.cursor += 1;
        if self.cursor == self.lines.len() {
            self.cursor = 0;
        }
        // Vary the column so request merging cannot collapse the stream.
        self.col += 1;
        if self.col == self.lines_per_row {
            self.col = 0;
        }
        TraceOp {
            non_mem_insts: 0,
            line_addr: line + self.col * self.col_step,
            is_write: false,
            uncacheable: true,
        }
    }

    fn name(&self) -> &str {
        self.name
    }
}

/// The BlockHammer performance-adversarial pattern (paper Section VI-A and
/// Fig. 10(c)): the attacker never hammers hard enough to be a Row Hammer
/// threat; instead it activates many distinct rows just below the blacklist
/// threshold, polluting the counting-Bloom-filter buckets that benign rows
/// hash into. Benign memory-intensive threads then cross `NBL` through no
/// fault of their own and get throttled.
#[derive(Debug, Clone)]
pub(crate) struct BlockHammerAdversarial {
    mapping: AddressMapping,
    banks: usize,
    rows_per_bank: u64,
    /// Rows the attacker touches per bank (pollution set size).
    set_size: u64,
    cursor: u64,
}

impl BlockHammerAdversarial {
    /// Creates a pollution attack touching `set_size` rows per bank,
    /// spread over every channel of the mapping's geometry.
    ///
    /// # Panics
    ///
    /// Panics if `set_size` is zero.
    pub fn new(mapping: AddressMapping, set_size: u64) -> Self {
        assert!(set_size > 0, "set_size must be non-zero");
        let g = *mapping.geometry();
        Self {
            mapping,
            banks: g.banks_total(),
            rows_per_bank: g.rows_per_bank,
            set_size,
            cursor: 0,
        }
    }
}

impl TraceSource for BlockHammerAdversarial {
    fn next_op(&mut self) -> TraceOp {
        // Stride through a wide, evenly spaced row set across all channels
        // and banks so the pollution covers as many CBF buckets as
        // possible.
        let i = self.cursor;
        self.cursor = self.cursor.wrapping_add(1);
        let channel = ChannelId((i as usize) % self.mapping.channels());
        let bank = (i as usize / self.mapping.channels()) % self.banks;
        let slot = (i / (self.mapping.channels() * self.banks) as u64) % self.set_size;
        let row = (slot * (self.rows_per_bank / self.set_size).max(1)) % self.rows_per_bank;
        let line = self.mapping.line_for(MappedAddr {
            channel,
            bank,
            row,
            col: (i / 7) % 128,
        });
        TraceOp {
            non_mem_insts: 0,
            line_addr: line,
            is_write: false,
            uncacheable: true,
        }
    }

    fn name(&self) -> &str {
        "blockhammer-adversarial"
    }
}

/// Pins an arbitrary trace source to one memory channel.
///
/// The wrapped source's line addresses are re-interleaved so that every
/// access lands on `channel` while keeping the source's bank/row/column
/// structure within that channel. This is how the channel-interference mix
/// builds "streaming victim on channel B while the hammer runs on channel
/// A" scenarios.
///
/// # Example
///
/// ```
/// use mithril_dram::{ChannelId, Geometry};
/// use mithril_memctrl::AddressMapping;
/// use mithril_workloads::{ChannelPinned, StreamSweep, TraceSource};
///
/// let m = AddressMapping::new(Geometry::table_iii_system());
/// let mut pinned = ChannelPinned::new(StreamSweep::new(4, 1 << 20, 7), m, ChannelId(1));
/// for _ in 0..100 {
///     let op = pinned.next_op();
///     assert_eq!(m.map_line(op.line_addr).channel, ChannelId(1));
/// }
/// ```
pub struct ChannelPinned<S> {
    inner: S,
    mapping: AddressMapping,
    channel: ChannelId,
    name: String,
}

impl<S: TraceSource> ChannelPinned<S> {
    /// Pins `inner` to `channel` under `mapping`.
    ///
    /// # Panics
    ///
    /// Panics if `channel` is out of range for the mapping's geometry.
    pub fn new(inner: S, mapping: AddressMapping, channel: ChannelId) -> Self {
        assert!(channel.0 < mapping.channels(), "channel out of range");
        let name = format!("{}@{channel}", inner.name());
        Self {
            inner,
            mapping,
            channel,
            name,
        }
    }
}

impl<S: TraceSource> TraceSource for ChannelPinned<S> {
    fn next_op(&mut self) -> TraceOp {
        let mut op = self.inner.next_op();
        // Interpret the inner line address as a per-channel line: spread it
        // into the full interleaving, then override the channel.
        let spread = op.line_addr.wrapping_mul(self.mapping.channels() as u64);
        let mut addr = self.mapping.map_line(spread);
        addr.channel = self.channel;
        op.line_addr = self.mapping.line_for(addr);
        op
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mithril_dram::Geometry;

    fn mapping() -> AddressMapping {
        AddressMapping::new(Geometry::default())
    }

    fn mapping2ch() -> AddressMapping {
        AddressMapping::new(Geometry::table_iii_system())
    }

    #[test]
    fn double_sided_alternates_aggressors() {
        let mut a = RowAttack::double_sided(mapping(), ChannelId(0), 3, 1000);
        let m = mapping();
        let r1 = m.map_line(a.next_op().line_addr);
        let r2 = m.map_line(a.next_op().line_addr);
        assert_eq!((r1.bank, r1.row), (3, 999));
        assert_eq!((r2.bank, r2.row), (3, 1001));
        // And repeats.
        let r3 = m.map_line(a.next_op().line_addr);
        assert_eq!(r3.row, 999);
    }

    #[test]
    fn attack_ops_are_uncacheable_reads() {
        let mut a = RowAttack::double_sided(mapping(), ChannelId(0), 0, 10);
        let op = a.next_op();
        assert!(op.uncacheable);
        assert!(!op.is_write);
        assert_eq!(op.non_mem_insts, 0);
    }

    #[test]
    fn multi_sided_covers_32_aggressors() {
        let mut a = RowAttack::multi_sided(mapping(), ChannelId(0), 1, 5000, 32);
        let m = mapping();
        let rows: Vec<u64> = (0..32)
            .map(|_| m.map_line(a.next_op().line_addr).row)
            .collect();
        assert_eq!(rows[0], 5000);
        assert_eq!(rows[31], 5000 + 62);
        assert!(rows.windows(2).all(|w| w[1] == w[0] + 2));
    }

    #[test]
    fn columns_vary_to_defeat_merging() {
        let mut a = RowAttack::double_sided(mapping(), ChannelId(0), 0, 10);
        let m = mapping();
        let c1 = m.map_line(a.next_op().line_addr).col;
        let c2 = m.map_line(a.next_op().line_addr).col;
        let c3 = m.map_line(a.next_op().line_addr).col;
        assert!(c1 != c3 || c2 != c1);
    }

    #[test]
    fn adversarial_spreads_rows_banks_and_channels() {
        let m = mapping2ch();
        let mut a = BlockHammerAdversarial::new(m, 64);
        let mut banks = std::collections::HashSet::new();
        let mut rows = std::collections::HashSet::new();
        let mut channels = std::collections::HashSet::new();
        for _ in 0..2 * 32 * 64 {
            let addr = m.map_line(a.next_op().line_addr);
            channels.insert(addr.channel);
            banks.insert(addr.bank);
            rows.insert(addr.row);
        }
        assert_eq!(channels.len(), 2);
        assert_eq!(banks.len(), 32);
        assert!(rows.len() >= 64);
    }

    #[test]
    fn attacks_stay_on_their_channel() {
        let m = mapping2ch();
        for channel in [ChannelId(0), ChannelId(1)] {
            let mut a = RowAttack::double_sided(m, channel, 3, 1000);
            for _ in 0..64 {
                let addr = m.map_line(a.next_op().line_addr);
                assert_eq!(addr.channel, channel, "attack strayed off {channel}");
                assert_eq!(addr.bank, 3);
            }
        }
    }

    #[test]
    fn channel_pinned_keeps_all_traffic_on_channel() {
        let m = mapping2ch();
        let mut pinned = ChannelPinned::new(
            crate::kernels::StreamSweep::new(4, 1 << 20, 9),
            m,
            ChannelId(1),
        );
        let mut rows = std::collections::HashSet::new();
        for _ in 0..4_096 {
            let op = pinned.next_op();
            let addr = m.map_line(op.line_addr);
            assert_eq!(addr.channel, ChannelId(1));
            rows.insert((addr.bank, addr.row));
        }
        assert!(rows.len() > 8, "pinning must preserve footprint diversity");
    }

    /// The stream `RowAttack` produced when it inverted the mapping on
    /// every op: target `i mod n`, column `(i + 1) mod lines_per_row`,
    /// each through `line_for`.
    fn line_for_stream(
        m: AddressMapping,
        channel: ChannelId,
        targets: &[(usize, RowId)],
        ops: usize,
    ) -> Vec<u64> {
        let lines_per_row = m.geometry().lines_per_row();
        (0..ops)
            .map(|i| {
                let (bank, row) = targets[i % targets.len()];
                let col = (i as u64 + 1) % lines_per_row;
                m.line_for(MappedAddr {
                    channel,
                    bank,
                    row,
                    col,
                })
            })
            .collect()
    }

    #[test]
    fn row_attacks_match_the_line_for_stream() {
        let geometries = [
            Geometry::default(),
            Geometry::table_iii_system(),
            Geometry::default().with_ranks(2),
        ];
        for g in geometries {
            let m = AddressMapping::new(g);
            let last_bank = g.banks_total() - 1;
            let top_row = g.rows_per_bank - 1;
            for channel in g.channel_ids() {
                let double = RowAttack::double_sided(m, channel, 3, 1000);
                let double_top = RowAttack::double_sided(m, channel, last_bank, top_row - 1);
                let multi = RowAttack::multi_sided(m, channel, 0, 5000, 32);
                let single = RowAttack::multi_sided(m, channel, last_bank, top_row, 1);
                let row_list: Vec<_> = (0..=last_bank)
                    .map(|b| (b, (b as u64 * 977) % top_row))
                    .collect();
                let attacks: Vec<(&str, Vec<_>, Box<dyn TraceSource>)> = vec![
                    ("double", vec![(3, 999), (3, 1001)], Box::new(double)),
                    (
                        "double-top",
                        vec![(last_bank, top_row - 2), (last_bank, top_row)],
                        Box::new(double_top),
                    ),
                    (
                        "multi",
                        (0..32).map(|i| (0, 5000 + 2 * i)).collect(),
                        Box::new(multi),
                    ),
                    ("single", vec![(last_bank, top_row)], Box::new(single)),
                    (
                        "row-list",
                        row_list.clone(),
                        Box::new(RowAttack::new(m, channel, row_list, "row-list")),
                    ),
                ];
                for (label, targets, mut attack) in attacks {
                    let ops = 2 * targets.len() * g.lines_per_row() as usize;
                    let got: Vec<u64> = (0..ops).map(|_| attack.next_op().line_addr).collect();
                    assert_eq!(
                        got,
                        line_for_stream(m, channel, &targets, ops),
                        "{label} on {channel} of {g:?}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "channel out of range")]
    fn out_of_range_channel_panics() {
        let _ = RowAttack::double_sided(mapping(), ChannelId(1), 0, 10);
    }
}
