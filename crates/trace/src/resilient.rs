//! The skip policy of the MTRC reader: skip damaged chunks, keep the
//! rest.
//!
//! A strict read ([`MtrcReader::next_chunk`], [`read_all`]) treats any
//! damage as fatal — correct for integrity checking, but it makes one
//! flipped byte discard a multi-gigabyte capture. On a seekable source
//! the same reader can instead *skip* records that fail their checksum
//! ([`MtrcReader::next_chunk_skipping`]) and resynchronize on the next
//! decodable record, counting what it dropped in a [`ResilienceReport`]
//! so the loss is visible, never silent. [`DamagePolicy`] names the
//! choice for the loaders above the reader.
//!
//! # Resynchronization
//!
//! Chunks are self-delimiting (`core`/`count`/`payload_len` varints +
//! payload + checksum), so recovery tries the cheap exact path first: if
//! the damaged chunk's *frame* still parses, the next record starts at
//! its claimed extent. The claim is only trusted when the chain of
//! records from there leads to a checksum-valid record (or exact EOF) —
//! a corrupted `payload_len` would otherwise desynchronize the rest of
//! the file. When the frame itself is damaged the reader falls back to a
//! byte-by-byte scan for the next position where a record decodes and
//! checksums cleanly.
//!
//! Payload-only damage therefore skips exactly the damaged chunks, one
//! count each; frame damage may merge adjacent losses into one skip
//! region. Acceptance is always checksum-gated: a skipping read never
//! yields ops a strict read would reject.
//!
//! # What stays strict
//!
//! The header. A capture without a valid header has no trustworthy
//! geometry or core count, and replaying ops aimed at an unknown address
//! mapping answers nothing — that failure is still [`TraceError`].

use std::io::{Read, Seek, SeekFrom};

use mithril_workloads::TraceOp;

use crate::error::{Result, TraceError};
use crate::format::{
    read_all, read_raw_chunk, read_varint, CountingReader, MtrcReader, OpSink, RawChunk,
    TraceHeader, CORE_END,
};

/// How a read treats a damaged record: the choice between the `trace:`
/// and `trace+skip:` registry names, and the `trace` CLI's `--resilient`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum DamagePolicy {
    /// Any damage fails the read.
    #[default]
    Strict,
    /// Damaged records are skipped and tallied in a [`ResilienceReport`].
    Skip,
}

impl DamagePolicy {
    /// The registry-name prefix that selects this policy (`trace`,
    /// `trace+skip`), before the `:<path>` of the capture.
    pub fn prefix(self) -> &'static str {
        match self {
            DamagePolicy::Strict => "trace",
            DamagePolicy::Skip => "trace+skip",
        }
    }
}

/// What a skipping read skipped, for reporting and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResilienceReport {
    /// Damaged records skipped (exact for payload-only damage; frame
    /// damage may merge adjacent losses into one).
    pub skipped_chunks: u64,
    /// Total bytes skipped over while resynchronizing.
    pub skipped_bytes: u64,
    /// The file ended without a valid end marker (torn tail).
    pub missing_end_marker: bool,
    /// A valid end marker was found but its op total disagrees with the
    /// ops actually decoded — expected whenever chunks were skipped.
    pub end_count_mismatch: bool,
}

impl ResilienceReport {
    /// True when the capture read back fully intact.
    pub fn is_clean(&self) -> bool {
        *self == Self::default()
    }

    /// The `# <label>: skipped N damaged chunk(s) (B bytes)` line the
    /// runner prints on stderr (so it never contaminates a piped JSON
    /// report), or `None` for a clean read.
    pub fn skip_line(&self, label: &str) -> Option<String> {
        if self.is_clean() {
            return None;
        }
        let torn = if self.missing_end_marker {
            "; capture is torn (no end marker)"
        } else {
            ""
        };
        Some(format!(
            "# {label}: skipped {} damaged chunk(s) ({} bytes){torn}",
            self.skipped_chunks, self.skipped_bytes
        ))
    }
}

/// Cap on chain-walk validation steps when vetting a claimed extent; a
/// real MTRC file reaches a valid record far sooner, so the cap only
/// bounds work on pathological garbage.
const MAX_CHAIN_STEPS: u32 = 1024;

impl<R: Read + Seek> MtrcReader<R> {
    /// Decodes the next *valid* chunk into `ops` (cleared first) and
    /// returns its core id, or `None` at end of stream. Damaged records
    /// in between are skipped and tallied in [`MtrcReader::report`], not
    /// returned as errors.
    ///
    /// # Errors
    ///
    /// Only genuine I/O failure (device errors, not EOF/corruption).
    pub fn next_chunk_skipping(&mut self, ops: &mut Vec<TraceOp>) -> Result<Option<usize>> {
        ops.clear();
        self.read_into_skipping(ops)
    }

    /// What skipping reads have stepped over so far; complete once
    /// [`MtrcReader::next_chunk_skipping`] returns `Ok(None)`.
    pub fn report(&self) -> ResilienceReport {
        self.skip.report
    }

    /// Decodes the next valid chunk, appending its ops to `sink`'s vector
    /// for the chunk's core, and returns the core id (`None` at end of
    /// stream). Skipped records append nothing.
    fn read_into_skipping<S: OpSink + ?Sized>(&mut self, sink: &mut S) -> Result<Option<usize>> {
        if self.done {
            return Ok(None);
        }
        let file_len = match self.skip.file_len {
            Some(len) => len,
            None => {
                let here = self.source.stream_position()?;
                let len = self.source.seek(SeekFrom::End(0))?;
                self.source.seek(SeekFrom::Start(here))?;
                *self.skip.file_len.insert(len)
            }
        };
        loop {
            let start = self.source.stream_position()?;
            if start >= file_len {
                self.done = true;
                self.skip.report.missing_end_marker = true;
                return Ok(None);
            }
            match read_raw_chunk(
                &mut self.source,
                self.header.cores,
                self.chunk_index,
                &mut self.payload,
                sink,
            ) {
                Ok(RawChunk::End { total }) => {
                    self.done = true;
                    if total != self.ops_seen {
                        self.skip.report.end_count_mismatch = true;
                    }
                    return Ok(None);
                }
                Ok(RawChunk::Ops { core, ops }) => {
                    self.ops_seen += ops;
                    self.chunk_index += 1;
                    return Ok(Some(core));
                }
                Err(TraceError::Io(e)) => return Err(TraceError::Io(e)),
                Err(_) => {
                    let resumed_at = self.resync(start, file_len)?;
                    self.skip.report.skipped_chunks += 1;
                    self.skip.report.skipped_bytes += resumed_at - start;
                    self.source.seek(SeekFrom::Start(resumed_at))?;
                }
            }
        }
    }

    /// Finds the next believable record boundary after a failed decode at
    /// `start`: the damaged record's claimed extent when the chain from
    /// there validates, else the first byte offset where a record decodes
    /// cleanly, else EOF.
    fn resync(&mut self, start: u64, file_len: u64) -> Result<u64> {
        if let Some(extent) = self.claimed_extent_at(start)? {
            let candidate = start + extent;
            if candidate <= file_len && self.chain_validates(candidate, file_len)? {
                return Ok(candidate);
            }
        }
        let mut offset = start + 1;
        while offset < file_len {
            if self.probe(offset)? {
                return Ok(offset);
            }
            offset += 1;
        }
        Ok(file_len)
    }

    /// The byte extent the record at `offset` claims for itself, when its
    /// frame still parses plausibly (`None` otherwise).
    fn claimed_extent_at(&mut self, offset: u64) -> Result<Option<u64>> {
        self.source.seek(SeekFrom::Start(offset))?;
        let mut counter = CountingReader {
            inner: &mut self.source,
            bytes: 0,
        };
        macro_rules! lenient {
            ($e:expr) => {
                match $e {
                    Ok(v) => v,
                    Err(TraceError::Io(e)) => return Err(TraceError::Io(e)),
                    Err(_) => return Ok(None),
                }
            };
        }
        let core = lenient!(read_varint(&mut counter, "resync core id"));
        if core == CORE_END {
            lenient!(read_varint(&mut counter, "resync end-marker count"));
            return Ok(Some(counter.bytes + 8));
        }
        if core >= self.header.cores as u64 {
            return Ok(None);
        }
        let count = lenient!(read_varint(&mut counter, "resync op count"));
        let payload_len = lenient!(read_varint(&mut counter, "resync payload length"));
        // Two varints per op bounds a real payload; reject wild lengths
        // so a corrupted frame cannot claim half the file.
        if count == 0 || payload_len > (1 << 31) || payload_len > count.saturating_mul(20) {
            return Ok(None);
        }
        Ok(Some(counter.bytes + payload_len + 8))
    }

    /// True when a record decodes and checksums cleanly at `offset`.
    fn probe(&mut self, offset: u64) -> Result<bool> {
        self.source.seek(SeekFrom::Start(offset))?;
        self.skip.scratch_ops.clear();
        match read_raw_chunk(
            &mut self.source,
            self.header.cores,
            self.chunk_index,
            &mut self.skip.scratch_payload,
            &mut self.skip.scratch_ops,
        ) {
            Ok(_) => Ok(true),
            Err(TraceError::Io(e)) => Err(TraceError::Io(e)),
            Err(_) => Ok(false),
        }
    }

    /// True when following claimed extents from `offset` reaches a
    /// checksum-valid record or exact EOF — the vetting that lets
    /// adjacent payload-damaged chunks each count as their own skip.
    fn chain_validates(&mut self, mut offset: u64, file_len: u64) -> Result<bool> {
        for _ in 0..MAX_CHAIN_STEPS {
            if offset == file_len {
                return Ok(true);
            }
            if self.probe(offset)? {
                return Ok(true);
            }
            match self.claimed_extent_at(offset)? {
                Some(extent) if offset + extent <= file_len => offset += extent,
                _ => return Ok(false),
            }
        }
        Ok(false)
    }
}

/// The skip path's state inside an [`MtrcReader`]: untouched by strict
/// reads.
#[derive(Default)]
pub(crate) struct SkipState {
    /// The source's length, measured by the first skipping read.
    file_len: Option<u64>,
    scratch_payload: Vec<u8>,
    scratch_ops: Vec<TraceOp>,
    report: ResilienceReport,
}

/// Reads a whole seekable trace under `policy`, demultiplexed per core,
/// with the damage tally (always clean under [`DamagePolicy::Strict`],
/// which is exactly [`read_all`]). Under [`DamagePolicy::Skip`] the ops
/// returned are exactly those of the surviving valid chunks, in file
/// order.
///
/// # Errors
///
/// Strict: any codec error. Skip: I/O failure or a damaged header only.
pub fn read_all_with<R: Read + Seek>(
    source: R,
    policy: DamagePolicy,
) -> Result<(TraceHeader, Vec<Vec<TraceOp>>, ResilienceReport)> {
    if policy == DamagePolicy::Strict {
        let (header, per_core) = read_all(source)?;
        return Ok((header, per_core, ResilienceReport::default()));
    }
    let mut reader = MtrcReader::new(source)?;
    let mut per_core: Vec<Vec<TraceOp>> = (0..reader.header().cores).map(|_| Vec::new()).collect();
    while reader.read_into_skipping(&mut per_core[..])?.is_some() {}
    Ok((reader.header, per_core, reader.skip.report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::MtrcWriter;
    use mithril_dram::Geometry;
    use std::io::Cursor;

    fn header(cores: usize) -> TraceHeader {
        TraceHeader {
            geometry: Geometry::default(),
            cores,
            base_seed: 7,
            insts_per_core: 1000,
            source: "resilient-test".into(),
        }
    }

    /// Writes `chunks` (core, ops) in order, one record each, and returns
    /// the bytes plus each chunk's (start, frame_len, payload_len).
    fn capture(cores: usize, chunks: &[(usize, Vec<TraceOp>)]) -> (Vec<u8>, Vec<(u64, u64, u64)>) {
        let mut w = ChunkedWriter::new(cores);
        for (core, ops) in chunks {
            w.chunk(*core, ops);
        }
        w.finish()
    }

    /// Minimal re-encoder mirroring MtrcWriter's byte layout while
    /// recording chunk offsets (the `layout_matches_strict_reader` test
    /// cross-checks it against the real reader).
    struct ChunkedWriter {
        bytes: Vec<u8>,
        layout: Vec<(u64, u64, u64)>,
        cores: usize,
        total: u64,
    }

    impl ChunkedWriter {
        fn new(cores: usize) -> Self {
            let mut sink = Vec::new();
            {
                // Dropped without finish(): sink holds exactly the
                // encoded header, no end marker.
                let _w = MtrcWriter::new(&mut sink, &header(cores)).unwrap();
            }
            Self {
                bytes: sink,
                layout: Vec::new(),
                cores,
                total: 0,
            }
        }

        fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
            loop {
                let byte = (v & 0x7f) as u8;
                v >>= 7;
                if v == 0 {
                    buf.push(byte);
                    return;
                }
                buf.push(byte | 0x80);
            }
        }

        fn zigzag(v: i64) -> u64 {
            ((v << 1) ^ (v >> 63)) as u64
        }

        fn chunk(&mut self, core: usize, ops: &[TraceOp]) {
            assert!(core < self.cores && !ops.is_empty());
            let mut payload = Vec::new();
            let (mut prev_line, mut prev_nmi) = (0u64, 0i64);
            for op in ops {
                let flags = (op.uncacheable as u64) << 1 | op.is_write as u64;
                let nmi_delta = op.non_mem_insts as i64 - prev_nmi;
                Self::put_varint(&mut payload, Self::zigzag(nmi_delta) << 2 | flags);
                Self::put_varint(
                    &mut payload,
                    Self::zigzag(op.line_addr.wrapping_sub(prev_line) as i64),
                );
                prev_line = op.line_addr;
                prev_nmi = op.non_mem_insts as i64;
            }
            let mut frame = Vec::new();
            Self::put_varint(&mut frame, core as u64);
            Self::put_varint(&mut frame, ops.len() as u64);
            Self::put_varint(&mut frame, payload.len() as u64);
            let mut checked = frame.clone();
            checked.extend_from_slice(&payload);
            let start = self.bytes.len() as u64;
            self.layout
                .push((start, frame.len() as u64, payload.len() as u64));
            self.bytes.extend_from_slice(&frame);
            self.bytes.extend_from_slice(&payload);
            self.bytes
                .extend_from_slice(&mithril_fasthash::fnv1a64(&checked).to_le_bytes());
            self.total += ops.len() as u64;
        }

        fn finish(mut self) -> (Vec<u8>, Vec<(u64, u64, u64)>) {
            let mut frame = Vec::new();
            Self::put_varint(&mut frame, u64::MAX);
            let count_start = frame.len();
            Self::put_varint(&mut frame, self.total);
            let check = mithril_fasthash::fnv1a64(&frame[count_start..]);
            frame.extend_from_slice(&check.to_le_bytes());
            self.bytes.extend_from_slice(&frame);
            (self.bytes, self.layout)
        }
    }

    fn ops(tag: u64, n: usize) -> Vec<TraceOp> {
        (0..n as u64)
            .map(|i| TraceOp::read((tag * 10 + i) as u32, (tag << 20) | (i * 3)))
            .collect()
    }

    #[test]
    fn layout_matches_strict_reader() {
        // The hand-rolled test writer must stay byte-compatible with the
        // real format: the strict reader accepts its output verbatim.
        let chunks = vec![(0usize, ops(1, 5)), (1, ops(2, 3)), (0, ops(3, 7))];
        let (bytes, layout) = capture(2, &chunks);
        let (h, per_core) = read_all(&bytes[..]).unwrap();
        assert_eq!(h, header(2));
        assert_eq!(per_core[0].len(), 12);
        assert_eq!(per_core[1].len(), 3);
        assert_eq!(layout.len(), 3);
    }

    #[test]
    fn clean_file_reads_clean() {
        let (bytes, _) = capture(2, &[(0, ops(1, 4)), (1, ops(2, 4))]);
        let (h, per_core, report) = read_all_with(Cursor::new(bytes), DamagePolicy::Skip).unwrap();
        assert_eq!(h.cores, 2);
        assert_eq!(per_core[0].len(), 4);
        assert!(report.is_clean(), "report: {report:?}");
    }

    #[test]
    fn payload_flip_skips_exactly_that_chunk() {
        let chunks = vec![(0usize, ops(1, 5)), (0, ops(2, 6)), (0, ops(3, 7))];
        let (bytes, layout) = capture(1, &chunks);
        let (start, frame_len, _) = layout[1];
        let mut corrupted = bytes.clone();
        corrupted[(start + frame_len) as usize] ^= 0x40;
        let (_, per_core, report) =
            read_all_with(Cursor::new(corrupted), DamagePolicy::Skip).unwrap();
        let mut expect = ops(1, 5);
        expect.extend(ops(3, 7));
        assert_eq!(per_core[0], expect, "surviving chunks, in order");
        assert_eq!(report.skipped_chunks, 1);
        assert!(report.end_count_mismatch, "total no longer matches");
        assert!(!report.missing_end_marker);
    }

    #[test]
    fn adjacent_corrupt_chunks_count_individually() {
        let chunks = vec![
            (0usize, ops(1, 5)),
            (0, ops(2, 6)),
            (0, ops(3, 7)),
            (0, ops(4, 8)),
        ];
        let (bytes, layout) = capture(1, &chunks);
        let mut corrupted = bytes.clone();
        for &(start, frame_len, _) in &layout[1..3] {
            corrupted[(start + frame_len) as usize] ^= 0x40;
        }
        let (_, per_core, report) =
            read_all_with(Cursor::new(corrupted), DamagePolicy::Skip).unwrap();
        let mut expect = ops(1, 5);
        expect.extend(ops(4, 8));
        assert_eq!(per_core[0], expect);
        assert_eq!(report.skipped_chunks, 2, "one count per damaged chunk");
    }

    #[test]
    fn frame_damage_resyncs_by_scanning() {
        let chunks = vec![(0usize, ops(1, 5)), (0, ops(2, 6)), (0, ops(3, 7))];
        let (bytes, layout) = capture(1, &chunks);
        let (start, _, _) = layout[1];
        let mut corrupted = bytes.clone();
        // Smash the frame varints themselves.
        corrupted[start as usize] = 0xff;
        corrupted[start as usize + 1] = 0xff;
        let (_, per_core, report) =
            read_all_with(Cursor::new(corrupted), DamagePolicy::Skip).unwrap();
        let mut expect = ops(1, 5);
        expect.extend(ops(3, 7));
        assert_eq!(per_core[0], expect);
        assert!(report.skipped_chunks >= 1);
        assert!(report.skipped_bytes > 0);
    }

    #[test]
    fn torn_tail_is_counted_and_flagged() {
        let chunks = vec![(0usize, ops(1, 5)), (0, ops(2, 40))];
        let (bytes, layout) = capture(1, &chunks);
        let (start, frame_len, _) = layout[1];
        // Cut mid-payload of the second chunk.
        let cut = (start + frame_len + 10) as usize;
        let (_, per_core, report) =
            read_all_with(Cursor::new(bytes[..cut].to_vec()), DamagePolicy::Skip).unwrap();
        assert_eq!(per_core[0], ops(1, 5));
        assert_eq!(report.skipped_chunks, 1);
        assert!(report.missing_end_marker);
    }

    #[test]
    fn header_damage_stays_fatal() {
        let (mut bytes, _) = capture(1, &[(0, ops(1, 3))]);
        bytes[10] ^= 0x01;
        assert!(read_all_with(Cursor::new(bytes), DamagePolicy::Skip).is_err());
    }

    use proptest::prelude::*;

    proptest! {
        /// The resilience contract, under arbitrary payload/checksum
        /// corruption of arbitrary chunks: the ops read back are exactly
        /// those of the surviving valid chunks, in file order, and the
        /// skipped-chunk count is exact (payload damage never merges or
        /// double-counts, even on adjacent chunks). Indices are generated
        /// wide and wrapped to the live ranges, as the shim has no
        /// dependent strategies.
        #[test]
        fn corrupted_captures_lose_exactly_their_chunks(
            cores in 1usize..4,
            specs in prop::collection::vec((0usize..8, 1usize..12), 1..10),
            damage in prop::collection::vec(
                (0usize..64, 0usize..4096, 1u64..256),
                0..6,
            ),
        ) {
            let chunks: Vec<(usize, Vec<TraceOp>)> = specs
                .iter()
                .enumerate()
                .map(|(i, &(core, n))| (core % cores, ops(i as u64 + 1, n)))
                .collect();
            let (mut bytes, layout) = capture(cores, &chunks);

            // One flip per chunk at most (a second flip could undo the
            // first and silently heal the record), anywhere in the
            // payload + checksum span so the frame stays parseable.
            let mut damaged: Vec<usize> = Vec::new();
            for &(chunk_ix, offset_ix, mask) in &damage {
                let c = chunk_ix % chunks.len();
                if damaged.contains(&c) {
                    continue;
                }
                let (start, frame_len, payload_len) = layout[c];
                let span = (payload_len + 8) as usize;
                let at = (start + frame_len) as usize + offset_ix % span;
                bytes[at] ^= mask as u8;
                damaged.push(c);
            }

            let (h, per_core, report) =
                read_all_with(Cursor::new(bytes), DamagePolicy::Skip).unwrap();
            prop_assert_eq!(h, header(cores));
            prop_assert_eq!(report.skipped_chunks, damaged.len() as u64);
            prop_assert!(!report.missing_end_marker);
            prop_assert_eq!(report.end_count_mismatch, !damaged.is_empty());
            prop_assert_eq!(report.is_clean(), damaged.is_empty());

            let mut expect: Vec<Vec<TraceOp>> = vec![Vec::new(); cores];
            for (i, (core, ops)) in chunks.iter().enumerate() {
                if !damaged.contains(&i) {
                    expect[*core].extend_from_slice(ops);
                }
            }
            prop_assert_eq!(per_core, expect);
        }
    }
}
