//! Streaming statistics over a captured trace: access mix, per-channel /
//! per-bank pressure, row-touch distribution and the hottest rows.
//!
//! Each row's tracker estimate comes from an unbounded Counter-based
//! Summary table — `mithril::MithrilTable<u64>`, the table the protection
//! schemes themselves run on — so `trace stat` doubles as a "what would a
//! tracker see" probe: the rows it surfaces are the rows a
//! Mithril/Graphene table would be defending.

use mithril::MithrilTable;
use mithril_fasthash::FastHashMap;
use mithril_memctrl::AddressMapping;
use mithril_obs::json::Json;
use mithril_obs::json_obj;
use mithril_workloads::TraceOp;

use crate::error::Result;
use crate::format::{MtrcReader, TraceHeader};
use crate::resilient::{ResilienceReport, ResilientMtrcReader};

/// One hot row with its DRAM coordinates and access counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HotRow {
    /// Channel the row's lines map to.
    pub channel: usize,
    /// Flat bank index within the channel.
    pub bank: usize,
    /// Row within the bank.
    pub row: u64,
    /// Exact access count.
    pub count: u64,
    /// What the Counter-based Summary table estimates for this row
    /// (`>= count` by the Space-Saving bracket; the gap shows how much
    /// slack a fixed-size hardware table would have on this trace).
    pub tracker_estimate: u64,
}

/// Aggregate statistics of one capture.
#[derive(Debug, Clone)]
pub struct TraceStats {
    /// The capture's header.
    pub header: TraceHeader,
    /// Total ops across cores.
    pub total_ops: u64,
    /// Ops per core stream.
    pub per_core_ops: Vec<u64>,
    /// Cacheable reads.
    pub reads: u64,
    /// Writes.
    pub writes: u64,
    /// Cache-bypassing accesses (attack traffic).
    pub uncacheable: u64,
    /// Accesses mapping to each channel.
    pub per_channel_accesses: Vec<u64>,
    /// Accesses mapping to each `[channel][bank]`.
    pub per_bank_accesses: Vec<Vec<u64>>,
    /// Distinct (channel, bank, row) tuples touched.
    pub distinct_rows: u64,
    /// Row-touch histogram: `(lo, hi, rows)` — number of distinct rows
    /// touched between `lo` and `hi` times inclusive (power-of-two
    /// buckets).
    pub row_touch_histogram: Vec<(u64, u64, u64)>,
    /// The top-N hottest rows, hottest first (ties broken by coordinates).
    pub hot_rows: Vec<HotRow>,
}

/// Streaming collector: feed `(core, op)` pairs, then [`finish`].
///
/// Memory: O(distinct rows touched) for the exact histogram plus the
/// fixed-size Counter-based Summary table — not O(ops).
///
/// [`finish`]: StatsCollector::finish
pub(crate) struct StatsCollector {
    header: TraceHeader,
    mapping: AddressMapping,
    top: usize,
    per_core_ops: Vec<u64>,
    reads: u64,
    writes: u64,
    uncacheable: u64,
    per_bank: Vec<Vec<u64>>,
    row_counts: FastHashMap<u64, u64>,
    summary: MithrilTable<u64>,
}

impl StatsCollector {
    /// Creates a collector for captures under `header`, reporting the
    /// `top` hottest rows.
    pub fn new(header: TraceHeader, top: usize) -> Self {
        let mapping = AddressMapping::new(header.geometry);
        let channels = header.geometry.channels;
        let banks = header.geometry.banks_total();
        Self {
            per_core_ops: vec![0; header.cores],
            reads: 0,
            writes: 0,
            uncacheable: 0,
            per_bank: vec![vec![0; banks]; channels],
            row_counts: FastHashMap::default(),
            // Oversize the tracker relative to the report so the top-N
            // estimates are exact unless the trace touches far more hot
            // rows than the report shows (the Space-Saving guarantee
            // degrades gracefully from there).
            summary: MithrilTable::new((top.max(1) * 8).max(64)),
            top: top.max(1),
            header,
            mapping,
        }
    }

    fn row_key(&self, channel: usize, bank: usize, row: u64) -> u64 {
        (channel as u64 * self.header.geometry.banks_total() as u64 + bank as u64)
            * self.header.geometry.rows_per_bank
            + row
    }

    fn unpack_key(&self, key: u64) -> (usize, usize, u64) {
        let rows = self.header.geometry.rows_per_bank;
        let banks = self.header.geometry.banks_total() as u64;
        let row = key % rows;
        let flat = key / rows;
        ((flat / banks) as usize, (flat % banks) as usize, row)
    }

    /// Accounts one op of `core`.
    pub fn push(&mut self, core: usize, op: &TraceOp) {
        self.per_core_ops[core] += 1;
        if op.uncacheable {
            self.uncacheable += 1;
        } else if op.is_write {
            self.writes += 1;
        } else {
            self.reads += 1;
        }
        let a = self.mapping.map_line(op.line_addr);
        self.per_bank[a.channel.0][a.bank] += 1;
        let key = self.row_key(a.channel.0, a.bank, a.row);
        *self.row_counts.entry(key).or_insert(0) += 1;
        self.summary.on_activate(key);
    }

    /// Seals the collection into a [`TraceStats`].
    pub fn finish(self) -> TraceStats {
        // Power-of-two row-touch buckets: [1,1], [2,3], [4,7], ...
        let mut hist: Vec<(u64, u64, u64)> = Vec::new();
        for &count in self.row_counts.values() {
            let bucket = 63 - count.leading_zeros() as u64;
            while hist.len() <= bucket as usize {
                let lo = 1u64 << hist.len();
                hist.push((lo, lo * 2 - 1, 0));
            }
            hist[bucket as usize].2 += 1;
        }

        // Top-N selected by the exact counts (ties broken by coordinates
        // for determinism); the Space-Saving estimate rides along as the
        // tracker's view of the same row.
        let mut hot: Vec<(u64, u64)> = self
            .row_counts
            .iter()
            .map(|(&key, &count)| (key, count))
            .collect();
        hot.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        hot.truncate(self.top);
        let hot_rows = hot
            .into_iter()
            .map(|(key, count)| {
                let (channel, bank, row) = self.unpack_key(key);
                HotRow {
                    channel,
                    bank,
                    row,
                    count,
                    tracker_estimate: self.summary.estimate(key),
                }
            })
            .collect();

        TraceStats {
            total_ops: self.per_core_ops.iter().sum(),
            per_core_ops: self.per_core_ops,
            reads: self.reads,
            writes: self.writes,
            uncacheable: self.uncacheable,
            per_channel_accesses: self.per_bank.iter().map(|b| b.iter().sum()).collect(),
            per_bank_accesses: self.per_bank,
            distinct_rows: self.row_counts.len() as u64,
            row_touch_histogram: hist,
            hot_rows,
            header: self.header,
        }
    }
}

/// Streams a whole MTRC reader through a collector.
pub fn stats_from_reader<R: std::io::Read>(
    mut reader: MtrcReader<R>,
    top: usize,
) -> Result<TraceStats> {
    let mut collector = StatsCollector::new(reader.header().clone(), top);
    let mut chunk = Vec::new();
    while let Some(core) = reader.next_chunk(&mut chunk)? {
        for op in &chunk {
            collector.push(core, op);
        }
    }
    Ok(collector.finish())
}

/// Streams a damaged capture through a collector via the resilient
/// reader: statistics cover exactly the ops of surviving chunks, and the
/// accompanying [`ResilienceReport`] says what was skipped.
pub fn stats_from_resilient_reader<R: std::io::Read + std::io::Seek>(
    mut reader: ResilientMtrcReader<R>,
    top: usize,
) -> Result<(TraceStats, ResilienceReport)> {
    let mut collector = StatsCollector::new(reader.header().clone(), top);
    let mut chunk = Vec::new();
    while let Some(core) = reader.next_chunk(&mut chunk)? {
        for op in &chunk {
            collector.push(core, op);
        }
    }
    Ok((collector.finish(), reader.report()))
}

impl TraceStats {
    /// Renders the stats as deterministic JSON (fixed field order, no
    /// host- or time-dependent content), in the spirit of
    /// `BENCH_sweep.json`, with an optional [`ResilienceReport`] embedded
    /// as a `resilience` object — the shape `trace stat --resilient`
    /// emits, so a damaged capture's statistics carry what was skipped to
    /// produce them.
    pub fn render_json_with(&self, resilience: Option<&ResilienceReport>) -> String {
        self.tree(resilience).render_report()
    }

    fn tree(&self, resilience: Option<&ResilienceReport>) -> Json {
        let g = &self.header.geometry;
        let per_channel = self
            .per_channel_accesses
            .iter()
            .zip(&self.per_bank_accesses)
            .enumerate()
            .map(|(ch, (&n, banks))| {
                let rate = if self.total_ops == 0 {
                    0.0
                } else {
                    n as f64 / self.total_ops as f64
                };
                json_obj! {
                    "channel": ch,
                    "accesses": n,
                    "access_fraction": rate,
                    "per_bank": banks.clone(),
                }
            });
        let hist = self
            .row_touch_histogram
            .iter()
            .filter(|&&(_, _, rows)| rows > 0)
            .map(|&(lo, hi, rows)| json_obj! {"touches_lo": lo, "touches_hi": hi, "rows": rows});
        let hot = self.hot_rows.iter().map(|h| {
            json_obj! {
                "channel": h.channel,
                "bank": h.bank,
                "row": h.row,
                "count": h.count,
                "tracker_estimate": h.tracker_estimate,
            }
        });
        let mut t = json_obj! {
            "format_version": mithril_obs::FORMAT_VERSION,
            "source": &self.header.source,
            "geometry": format!("{}ch{}rk{}b", g.channels, g.ranks, g.banks_per_rank),
            "cores": self.header.cores,
            "base_seed": self.header.base_seed,
            "insts_per_core": self.header.insts_per_core,
            "total_ops": self.total_ops,
            "per_core_ops": self.per_core_ops.clone(),
            "reads": self.reads,
            "writes": self.writes,
            "uncacheable": self.uncacheable,
            "distinct_rows": self.distinct_rows,
            "per_channel": Json::arr(per_channel),
            "row_touch_histogram": Json::arr(hist),
            "hot_rows": Json::arr(hot),
        };
        if let Some(r) = resilience {
            t.push(
                "resilience",
                json_obj! {
                    "skipped_chunks": r.skipped_chunks,
                    "skipped_bytes": r.skipped_bytes,
                    "missing_end_marker": r.missing_end_marker,
                    "end_count_mismatch": r.end_count_mismatch,
                    "clean": r.is_clean(),
                },
            );
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mithril_dram::Geometry;

    fn header() -> TraceHeader {
        TraceHeader {
            geometry: Geometry::default(),
            cores: 2,
            base_seed: 1,
            insts_per_core: 0,
            source: "unit".into(),
        }
    }

    #[test]
    fn counts_mix_and_channels() {
        let mut c = StatsCollector::new(header(), 4);
        for i in 0..100u64 {
            c.push(0, &TraceOp::read(1, i));
        }
        c.push(1, &TraceOp::write(1, 5));
        c.push(
            1,
            &TraceOp {
                non_mem_insts: 0,
                line_addr: 9,
                is_write: false,
                uncacheable: true,
            },
        );
        let s = c.finish();
        assert_eq!(s.total_ops, 102);
        assert_eq!(s.per_core_ops, vec![100, 2]);
        assert_eq!(s.reads, 100);
        assert_eq!(s.writes, 1);
        assert_eq!(s.uncacheable, 1);
        assert_eq!(s.per_channel_accesses, vec![102]); // 1-channel geometry
        assert_eq!(
            s.per_bank_accesses[0].iter().sum::<u64>(),
            s.per_channel_accesses[0]
        );
    }

    #[test]
    fn hot_rows_find_the_hammered_row() {
        let g = Geometry::default();
        let mapping = AddressMapping::new(g);
        let mut c = StatsCollector::new(header(), 2);
        // Hammer one specific row via its line address, with background
        // noise spread over many rows.
        let hot_line =
            mithril_memctrl::AddressMapping::new(g).line_for(mithril_memctrl::MappedAddr {
                channel: mithril_dram::ChannelId(0),
                bank: 3,
                row: 1234,
                col: 0,
            });
        for i in 0..500u64 {
            c.push(0, &TraceOp::read(0, i * 4096));
            c.push(0, &TraceOp::read(0, hot_line));
            c.push(0, &TraceOp::read(0, hot_line));
        }
        let s = c.finish();
        let top = &s.hot_rows[0];
        let a = mapping.map_line(hot_line);
        assert_eq!((top.channel, top.bank, top.row), (0, a.bank, a.row));
        assert_eq!(top.count, 1000);
        // Space-Saving brackets the truth from above for tracked rows.
        assert!(top.tracker_estimate >= top.count);
        // Histogram: the hot row sits in a high bucket, noise rows low.
        let total_rows: u64 = s.row_touch_histogram.iter().map(|h| h.2).sum();
        assert_eq!(total_rows, s.distinct_rows);
    }

    #[test]
    fn source_names_are_json_escaped() {
        let mut h = header();
        h.source = "we\"ird\\name".into();
        let mut c = StatsCollector::new(h, 1);
        c.push(0, &TraceOp::read(0, 1));
        let json = c.finish().render_json_with(None);
        assert!(json.contains(r#""source": "we\"ird\\name""#), "{json}");
    }

    #[test]
    fn json_carries_format_version_and_optional_resilience() {
        let mut c = StatsCollector::new(header(), 1);
        c.push(0, &TraceOp::read(0, 1));
        let s = c.finish();
        let plain = s.render_json_with(None);
        let version_line = format!("\"format_version\": {}", mithril_obs::FORMAT_VERSION);
        assert!(plain.contains(&version_line), "{plain}");
        assert!(!plain.contains("\"resilience\""), "{plain}");
        let report = ResilienceReport {
            skipped_chunks: 2,
            skipped_bytes: 77,
            missing_end_marker: true,
            end_count_mismatch: true,
        };
        let with = s.render_json_with(Some(&report));
        assert!(
            with.contains(
                "\"resilience\": {\"skipped_chunks\":2,\"skipped_bytes\":77,\
                 \"missing_end_marker\":true,\"end_count_mismatch\":true,\"clean\":false}"
            ),
            "{with}"
        );
        assert_eq!(with.matches('{').count(), with.matches('}').count());
    }

    #[test]
    fn json_is_deterministic_and_balanced() {
        let mut c = StatsCollector::new(header(), 3);
        for i in 0..50u64 {
            c.push((i % 2) as usize, &TraceOp::read(2, i * 97));
        }
        let s = c.finish();
        let a = s.render_json_with(None);
        let b = s.render_json_with(None);
        assert_eq!(a, b);
        assert_eq!(a.matches('{').count(), a.matches('}').count());
        assert_eq!(a.matches('[').count(), a.matches(']').count());
        assert!(a.contains("\"hot_rows\""));
    }

    #[test]
    fn stats_tree_round_trips_through_the_parser() {
        let mut c = StatsCollector::new(header(), 3);
        for i in 0..50u64 {
            c.push((i % 2) as usize, &TraceOp::read(2, i * 97));
        }
        let report = ResilienceReport {
            skipped_chunks: 1,
            skipped_bytes: 9,
            missing_end_marker: false,
            end_count_mismatch: true,
        };
        let tree = c.finish().tree(Some(&report));
        let text = tree.render_report();
        assert_eq!(Json::parse(&text).unwrap(), tree);
        assert_eq!(Json::parse(&tree.render()).unwrap(), tree);
    }
}
