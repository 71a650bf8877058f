//! Fundamental identifier and geometry types shared across the simulator.

/// Simulation time in integer picoseconds.
///
/// All DDR5 timing parameters of the paper's Table III convert exactly to
/// picoseconds (e.g. tRC = 48.64 ns = 48 640 ps), so no floating point is
/// needed anywhere in the timing model.
pub type TimePs = u64;

/// A DRAM row index within one bank.
pub type RowId = u64;

/// A memory-channel index at the system level.
///
/// Channels are fully independent command/data paths: each owns one memory
/// controller and one [`struct@crate::DramDevice`]. The newtype keeps
/// channel indices from being confused with rank or bank indices at API
/// boundaries; unwrap with `.0` where a flat index is needed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ChannelId(pub usize);

impl std::fmt::Display for ChannelId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ch{}", self.0)
    }
}

/// A rank index within one channel.
///
/// Ranks share the channel's command/data bus but have independent
/// tFAW/tRRD activation windows and are refreshed as a unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RankId(pub usize);

impl std::fmt::Display for RankId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "rk{}", self.0)
    }
}

/// A flat bank index within a channel (`rank * banks_per_rank + bank`).
///
/// This stays a plain `usize` deliberately: it is the hot index of the
/// per-activation path (bank queues, engines, oracles are all `Vec`s
/// indexed by it), and the flat form avoids a divide on every lookup.
pub type BankId = usize;

/// Physical organization of a memory subsystem: channels × ranks × banks.
///
/// A `Geometry` describes the whole hierarchy the simulator composes:
/// `channels` independent channels, each with `ranks` ranks of
/// `banks_per_rank` banks. Per-channel components (devices, controllers)
/// operate on the [`Geometry::channel_view`], which is the same geometry
/// restricted to one channel.
///
/// Defaults follow the paper's Table III *per channel*: 1 rank of 32 banks
/// and 64K rows of 8 KB per bank, with a single channel so that
/// channel-oblivious uses (harnesses, per-bank experiments) see exactly the
/// classic layout. The Table III *system* is two of these channels — see
/// [`Geometry::table_iii_system`].
///
/// # Example
///
/// ```
/// use mithril_dram::Geometry;
///
/// let g = Geometry::default();
/// assert_eq!(g.channels, 1);
/// assert_eq!(g.banks_total(), 32);
/// assert_eq!(g.rows_per_bank, 65_536);
/// // 8 KB rows and 64 B cache lines: 128 column bursts per row.
/// assert_eq!(g.row_bytes / g.line_bytes, 128);
///
/// let sys = Geometry::table_iii_system();
/// assert_eq!(sys.channels, 2);
/// assert_eq!(sys.banks_system_total(), 64);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geometry {
    /// Independent memory channels at the system level.
    pub channels: usize,
    /// Ranks per channel.
    pub ranks: usize,
    /// Banks per rank.
    pub banks_per_rank: usize,
    /// Rows per bank.
    pub rows_per_bank: u64,
    /// Bytes per DRAM row (page size across the rank).
    pub row_bytes: u64,
    /// Bytes per cache line / column burst.
    pub line_bytes: u64,
}

impl Geometry {
    /// The paper's Table III system geometry: 2 channels × 1 rank × 32
    /// banks of 64K × 8 KB rows.
    pub fn table_iii_system() -> Self {
        Self {
            channels: 2,
            ..Self::default()
        }
    }

    /// This geometry with a different channel count.
    pub fn with_channels(self, channels: usize) -> Self {
        Self { channels, ..self }
    }

    /// This geometry with a different rank count.
    pub fn with_ranks(self, ranks: usize) -> Self {
        Self { ranks, ..self }
    }

    /// Total banks on one channel.
    pub fn banks_total(&self) -> usize {
        self.ranks * self.banks_per_rank
    }

    /// Total banks across every channel of the system.
    pub fn banks_system_total(&self) -> usize {
        self.channels * self.banks_total()
    }

    /// The single-channel view of this geometry, as seen by one memory
    /// controller and its DRAM device.
    pub fn channel_view(&self) -> Geometry {
        Geometry {
            channels: 1,
            ..*self
        }
    }

    /// Iterates over the system's channel ids.
    pub fn channel_ids(&self) -> impl Iterator<Item = ChannelId> {
        (0..self.channels).map(ChannelId)
    }

    /// Iterates over one channel's rank ids.
    pub fn rank_ids(&self) -> impl Iterator<Item = RankId> {
        (0..self.ranks).map(RankId)
    }

    /// Cache lines (column bursts) per row.
    pub fn lines_per_row(&self) -> u64 {
        self.row_bytes / self.line_bytes
    }

    /// Splits a flat bank id into `(rank, bank-within-rank)`.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range for one channel.
    pub(crate) fn split_bank(&self, bank: BankId) -> (RankId, usize) {
        assert!(bank < self.banks_total(), "bank {bank} out of range");
        (
            RankId(bank / self.banks_per_rank),
            bank % self.banks_per_rank,
        )
    }
}

impl Default for Geometry {
    fn default() -> Self {
        Self {
            channels: 1,
            ranks: 1,
            banks_per_rank: 32,
            rows_per_bank: 65_536,
            row_bytes: 8 * 1024,
            line_bytes: 64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table_iii_channel() {
        let g = Geometry::default();
        assert_eq!(g.channels, 1);
        assert_eq!(g.ranks, 1);
        assert_eq!(g.banks_per_rank, 32);
        assert_eq!(g.banks_total(), 32);
    }

    #[test]
    fn table_iii_system_has_two_channels() {
        let g = Geometry::table_iii_system();
        assert_eq!(g.channels, 2);
        assert_eq!(g.banks_total(), 32);
        assert_eq!(g.banks_system_total(), 64);
        assert_eq!(g.channel_view(), Geometry::default());
    }

    #[test]
    fn builders_override_hierarchy_counts() {
        let g = Geometry::default().with_channels(4).with_ranks(2);
        assert_eq!(g.channels, 4);
        assert_eq!(g.ranks, 2);
        assert_eq!(g.banks_total(), 64);
        assert_eq!(g.banks_system_total(), 256);
        assert_eq!(g.channel_ids().count(), 4);
        assert_eq!(g.rank_ids().count(), 2);
    }

    #[test]
    fn split_bank_round_trips() {
        let g = Geometry {
            ranks: 2,
            banks_per_rank: 16,
            ..Geometry::default()
        };
        assert_eq!(g.split_bank(0), (RankId(0), 0));
        assert_eq!(g.split_bank(15), (RankId(0), 15));
        assert_eq!(g.split_bank(16), (RankId(1), 0));
        assert_eq!(g.split_bank(31), (RankId(1), 15));
        for bank in 0..g.banks_total() {
            let (rank, within) = g.split_bank(bank);
            assert_eq!(rank.0 * g.banks_per_rank + within, bank);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn split_bank_checks_range() {
        let g = Geometry::default();
        let _ = g.split_bank(32);
    }

    #[test]
    fn lines_per_row_default() {
        assert_eq!(Geometry::default().lines_per_row(), 128);
    }

    #[test]
    fn ids_display_compactly() {
        assert_eq!(ChannelId(3).to_string(), "ch3");
        assert_eq!(RankId(1).to_string(), "rk1");
    }
}
