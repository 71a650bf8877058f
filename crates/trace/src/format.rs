//! The MTRC v1 binary trace format: a compact, streaming, checksummed
//! container for multi-core [`TraceOp`] streams.
//!
//! # Layout
//!
//! ```text
//! file   := header chunk* end
//! header := "MTRC" u16:version(=1)
//!           varint: channels ranks banks_per_rank rows_per_bank
//!                   row_bytes line_bytes cores insts_per_core
//!           u64le: base_seed
//!           varint: source_len  bytes: source (UTF-8)
//!           u64le: fnv1a64 of every header byte after the magic
//! chunk  := varint: core_id(< cores)  varint: op_count(> 0)
//!           varint: payload_len  bytes: payload
//!           u64le: fnv1a64 of the three frame varints ++ payload
//! end    := varint: CORE_END(= u64::MAX)  varint: total_ops
//!           u64le: fnv1a64 of the total_ops varint bytes
//! ```
//!
//! Within a chunk every op is two varints; the per-core delta state
//! (previous `line_addr`, previous `non_mem_insts`) **resets at each chunk
//! boundary**, so chunks decode independently and a reader never needs
//! more state than one chunk:
//!
//! ```text
//! op := varint( zigzag(Δnon_mem_insts) << 2
//!               | uncacheable << 1 | is_write )
//!       varint( zigzag(line_addr -w- prev_line_addr) )
//! ```
//!
//! `-w-` is wrapping subtraction over `u64`, which composed with zigzag is
//! a bijection — arbitrary 64-bit line addresses round-trip exactly.
//! Sequential streams (ubiquitous in DRAM traces) encode as 2 bytes/op.
//!
//! # Streaming and integrity
//!
//! [`MtrcWriter`] buffers at most `chunk_ops` ops per core and
//! [`MtrcReader`] holds one decoded chunk, so both run in O(1) memory over
//! `BufWriter`/`BufReader` regardless of trace length. Every payload is
//! guarded by an FNV-1a checksum and the file by an explicit end marker
//! carrying the total op count: flipped bytes report as
//! [`TraceError::BadChecksum`], missing bytes as [`TraceError::Truncated`].
//!
//! Both directions make one pass over the payload bytes. The writer sizes
//! a chunk's payload from its varints' bit lengths, writes the frame, then
//! encodes each payload byte and folds it into the frame's checksum state.
//! The reader frames a chunk (varints, bounds checks, payload bytes,
//! stored checksum), then feeds each payload byte to the checksum as the
//! varint decoder consumes it. The checksum verdict still wins: a chunk
//! that fails both its checksum and its decode reports
//! [`TraceError::BadChecksum`], and only a checksum-valid chunk reports a
//! decode error (in payload order) or trailing bytes.

use std::io::{Read, Write};

use mithril_dram::Geometry;
use mithril_fasthash::{fnv1a64, Fnv64};
use mithril_workloads::TraceOp;

use crate::error::{Result, TraceError};
use crate::resilient::SkipState;

/// Format magic, first four bytes of every trace file.
pub(crate) const MAGIC: [u8; 4] = *b"MTRC";

/// The format version this module reads and writes.
pub(crate) const VERSION: u16 = 1;

/// Core-id sentinel introducing the end marker.
pub(crate) const CORE_END: u64 = u64::MAX;

/// Default ops buffered per core before a chunk is flushed.
pub(crate) const DEFAULT_CHUNK_OPS: usize = 4096;

/// Longest source name a header may carry — enforced symmetrically by
/// writer and reader, so a writer can never produce a file its own
/// reader refuses.
pub(crate) const MAX_SOURCE_LEN: usize = 4096;

// --------------------------------------------------------------- primitives

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
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

/// Writes `v` as a varint at `buf[*pos..]`, advancing `pos` and folding
/// each byte into `check` as it goes.
#[inline(always)]
fn write_varint(buf: &mut [u8], pos: &mut usize, check: &mut Fnv64, mut v: u64) {
    while v >= 0x80 {
        let byte = v as u8 | 0x80;
        buf[*pos] = byte;
        check.byte(byte);
        *pos += 1;
        v >>= 7;
    }
    buf[*pos] = v as u8;
    check.byte(v as u8);
    *pos += 1;
}

/// Encoded length of `v` as a varint: one byte per started 7 bits.
fn varint_len(v: u64) -> usize {
    (u64::BITS - (v | 1).leading_zeros()).div_ceil(7) as usize
}

/// The per-chunk delta state, reset at every chunk boundary.
#[derive(Default)]
struct Deltas {
    line: u64,
    nmi: i64,
}

impl Deltas {
    /// `op`'s two varint words (see the module docs), advancing the state.
    #[inline(always)]
    fn encode(&mut self, op: &TraceOp) -> (u64, u64) {
        let flags = (op.uncacheable as u64) << 1 | op.is_write as u64;
        let nmi = op.non_mem_insts as i64;
        let head = zigzag(nmi - self.nmi) << 2 | flags;
        let line = zigzag(op.line_addr.wrapping_sub(self.line) as i64);
        self.nmi = nmi;
        self.line = op.line_addr;
        (head, line)
    }
}

pub(crate) fn read_varint<R: Read>(r: &mut R, context: &'static str) -> Result<u64> {
    let mut out = 0u64;
    let mut shift = 0u32;
    loop {
        let mut byte = [0u8; 1];
        if let Err(e) = r.read_exact(&mut byte) {
            return Err(if e.kind() == std::io::ErrorKind::UnexpectedEof {
                TraceError::Truncated { context }
            } else {
                TraceError::Io(e)
            });
        }
        let byte = byte[0];
        if shift == 63 && byte > 1 {
            return Err(TraceError::Corrupt(format!(
                "varint overflow while reading {context}"
            )));
        }
        out |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(out);
        }
        shift += 7;
        if shift > 63 {
            return Err(TraceError::Corrupt(format!(
                "varint longer than 10 bytes while reading {context}"
            )));
        }
    }
}

pub(crate) fn read_exact<R: Read>(r: &mut R, buf: &mut [u8], context: &'static str) -> Result<()> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            TraceError::Truncated { context }
        } else {
            TraceError::Io(e)
        }
    })
}

// ------------------------------------------------------------------ header

/// The self-describing file header: enough to rebuild the scenario the
/// trace was captured under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceHeader {
    /// The memory hierarchy the trace's line addresses were aimed at.
    /// Replay requires a matching geometry so attack patterns land on the
    /// rows they were profiled against.
    pub geometry: Geometry,
    /// Number of per-core streams in the file.
    pub cores: usize,
    /// The *base* sweep seed the capture derived its generator seed from
    /// (see `replay seeding` in `ARCHITECTURE.md`); replaying under this
    /// base seed reproduces the live run bit-for-bit.
    pub base_seed: u64,
    /// Instructions per core the capture was sized for (0 = unknown; the
    /// recorded stream covers at least this many instructions per core).
    pub insts_per_core: u64,
    /// The registry workload name (or external origin) this trace records.
    pub source: String,
}

impl TraceHeader {
    /// Checks every constraint downstream consumers assume, so an invalid
    /// header is a clean [`TraceError::Corrupt`] instead of a panic deep
    /// inside `AddressMapping`/`Geometry`. Enforced symmetrically: the
    /// writer refuses to produce what the reader would refuse to load.
    fn validate(&self) -> Result<()> {
        let g = &self.geometry;
        let corrupt = |msg: String| Err(TraceError::Corrupt(msg));
        if g.channels == 0
            || g.ranks == 0
            || g.banks_per_rank == 0
            || g.rows_per_bank == 0
            || g.row_bytes == 0
            || g.line_bytes == 0
        {
            return corrupt("zero-sized geometry field".into());
        }
        if !g.channels.is_power_of_two() || !(g.ranks * g.banks_per_rank).is_power_of_two() {
            return corrupt(format!(
                "geometry {}ch x {}rk x {}b is not power-of-two mappable",
                g.channels, g.ranks, g.banks_per_rank
            ));
        }
        if !g.row_bytes.is_multiple_of(g.line_bytes)
            || !(g.row_bytes / g.line_bytes).is_power_of_two()
        {
            return corrupt(format!(
                "row_bytes {} / line_bytes {} is not a power-of-two line count",
                g.row_bytes, g.line_bytes
            ));
        }
        if self.cores == 0 || self.cores > 1 << 20 {
            return corrupt(format!("implausible core count {}", self.cores));
        }
        if self.source.len() > MAX_SOURCE_LEN {
            return corrupt(format!(
                "source name is {} bytes; readers accept at most {MAX_SOURCE_LEN}",
                self.source.len()
            ));
        }
        Ok(())
    }

    fn encode(&self) -> Vec<u8> {
        let mut body = Vec::with_capacity(64 + self.source.len());
        for v in [
            self.geometry.channels as u64,
            self.geometry.ranks as u64,
            self.geometry.banks_per_rank as u64,
            self.geometry.rows_per_bank,
            self.geometry.row_bytes,
            self.geometry.line_bytes,
            self.cores as u64,
            self.insts_per_core,
        ] {
            put_varint(&mut body, v);
        }
        body.extend_from_slice(&self.base_seed.to_le_bytes());
        put_varint(&mut body, self.source.len() as u64);
        body.extend_from_slice(self.source.as_bytes());

        let mut out = Vec::with_capacity(body.len() + 14);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        let mut checked = VERSION.to_le_bytes().to_vec();
        checked.extend_from_slice(&body);
        out.extend_from_slice(&body);
        out.extend_from_slice(&fnv1a64(&checked).to_le_bytes());
        out
    }

    pub(crate) fn decode<R: Read>(r: &mut R) -> Result<Self> {
        let mut magic = [0u8; 4];
        read_exact(r, &mut magic, "header magic")?;
        if magic != MAGIC {
            return Err(TraceError::BadMagic(magic));
        }
        let mut ver = [0u8; 2];
        read_exact(r, &mut ver, "header version")?;
        let version = u16::from_le_bytes(ver);
        if version != VERSION {
            return Err(TraceError::UnsupportedVersion(version));
        }

        // Hash the checksummed region as it is parsed, so the stored
        // checksum can be verified without buffering the whole file.
        let mut tee = Hashing::new(r);
        tee.check.update(&ver);
        let mut fields = [0u64; 8];
        for (i, f) in fields.iter_mut().enumerate() {
            let names = [
                "header channels",
                "header ranks",
                "header banks_per_rank",
                "header rows_per_bank",
                "header row_bytes",
                "header line_bytes",
                "header cores",
                "header insts_per_core",
            ];
            *f = read_varint(&mut tee, names[i])?;
        }
        let mut seed = [0u8; 8];
        read_exact(&mut tee, &mut seed, "header base_seed")?;
        let source_len = read_varint(&mut tee, "header source length")?;
        if source_len > MAX_SOURCE_LEN as u64 {
            return Err(TraceError::Corrupt(format!(
                "unreasonable source-name length {source_len}"
            )));
        }
        let mut source = vec![0u8; source_len as usize];
        read_exact(&mut tee, &mut source, "header source name")?;
        let check = tee.check;

        let mut stored = [0u8; 8];
        read_exact(r, &mut stored, "header checksum")?;
        if u64::from_le_bytes(stored) != check.finish() {
            return Err(TraceError::Corrupt("header checksum mismatch".into()));
        }

        let [channels, ranks, banks_per_rank, rows_per_bank, row_bytes, line_bytes, cores, insts] =
            fields;
        if channels > 1 << 20 || ranks > 1 << 20 || banks_per_rank > 1 << 20 {
            return Err(TraceError::Corrupt("implausible geometry field".into()));
        }
        let header = Self {
            geometry: Geometry {
                channels: channels as usize,
                ranks: ranks as usize,
                banks_per_rank: banks_per_rank as usize,
                rows_per_bank,
                row_bytes,
                line_bytes,
            },
            cores: cores as usize,
            base_seed: u64::from_le_bytes(seed),
            insts_per_core: insts,
            source: String::from_utf8(source)
                .map_err(|_| TraceError::Corrupt("source name is not UTF-8".into()))?,
        };
        header.validate()?;
        Ok(header)
    }
}

/// A `Read` adapter folding everything it reads into an FNV-1a state
/// (used to checksum the header and chunk frames while parsing them).
struct Hashing<'a, R> {
    inner: &'a mut R,
    check: Fnv64,
}

impl<'a, R> Hashing<'a, R> {
    fn new(inner: &'a mut R) -> Self {
        Self {
            inner,
            check: Fnv64::new(),
        }
    }
}

impl<R: Read> Read for Hashing<'_, R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.check.update(&buf[..n]);
        Ok(n)
    }
}

// ------------------------------------------------------------------ writer

/// Streaming MTRC writer: feed ops per core, chunks flush themselves.
///
/// Dropping a writer without calling [`MtrcWriter::finish`] leaves the
/// file without its end marker; readers will report it as truncated —
/// which is the correct verdict for an interrupted capture.
pub struct MtrcWriter<W: Write> {
    sink: W,
    cores: usize,
    chunk_ops: usize,
    pending: Vec<Vec<TraceOp>>,
    record: Vec<u8>,
    total_ops: u64,
}

impl<W: Write> MtrcWriter<W> {
    /// Writes `header` to `sink` and returns the writer.
    ///
    /// # Errors
    ///
    /// I/O failures, plus [`TraceError::Corrupt`] for any header the
    /// reader side would reject (unmappable geometry, zero cores, source
    /// name over 4096 bytes) — refused up front rather than after a long
    /// capture.
    pub fn new(sink: W, header: &TraceHeader) -> Result<Self> {
        Self::with_chunk_ops(sink, header, DEFAULT_CHUNK_OPS)
    }

    /// As [`MtrcWriter::new`] with an explicit per-core chunk size
    /// (clamped to at least 1; mainly for tests exercising many chunks).
    pub fn with_chunk_ops(mut sink: W, header: &TraceHeader, chunk_ops: usize) -> Result<Self> {
        header.validate()?;
        sink.write_all(&header.encode())?;
        Ok(Self {
            sink,
            cores: header.cores,
            chunk_ops: chunk_ops.max(1),
            pending: (0..header.cores).map(|_| Vec::new()).collect(),
            record: Vec::new(),
            total_ops: 0,
        })
    }

    /// Appends one op to `core`'s stream. ([`MtrcWriter::finish`]
    /// consumes the writer, so pushing after finish is a compile error,
    /// not a runtime state.)
    ///
    /// # Panics
    ///
    /// Panics if `core` is outside the header's core count.
    pub fn push(&mut self, core: usize, op: TraceOp) -> Result<()> {
        assert!(core < self.cores, "core {core} >= {}", self.cores);
        self.pending[core].push(op);
        self.total_ops += 1;
        if self.pending[core].len() >= self.chunk_ops {
            self.flush_core(core)?;
        }
        Ok(())
    }

    fn flush_core(&mut self, core: usize) -> Result<()> {
        let ops = &self.pending[core];
        if ops.is_empty() {
            return Ok(());
        }
        // The frame carries the payload length, so size the payload first
        // from the varints' bit lengths; the bytes are written once, below.
        let mut deltas = Deltas::default();
        let payload_len: usize = ops
            .iter()
            .map(|op| {
                let (head, line) = deltas.encode(op);
                varint_len(head) + varint_len(line)
            })
            .sum();
        let record = &mut self.record;
        record.clear();
        put_varint(record, core as u64);
        put_varint(record, ops.len() as u64);
        put_varint(record, payload_len as u64);
        // The checksum spans frame *and* payload: a flipped core-id bit
        // must not silently reroute a chunk to another core's stream.
        let mut check = Fnv64::new();
        check.update(record);
        let frame_len = record.len();
        record.resize(frame_len + payload_len + 8, 0);
        let (payload, stored) = record[frame_len..].split_at_mut(payload_len);
        let mut pos = 0;
        let mut deltas = Deltas::default();
        for op in ops {
            let (head, line) = deltas.encode(op);
            write_varint(payload, &mut pos, &mut check, head);
            write_varint(payload, &mut pos, &mut check, line);
        }
        debug_assert_eq!(pos, payload_len, "payload length pre-pass");
        stored.copy_from_slice(&check.finish().to_le_bytes());
        self.sink.write_all(record)?;
        self.pending[core].clear();
        Ok(())
    }

    /// Flushes every pending chunk, writes the end marker and returns the
    /// underlying sink. Total ops written so far is recorded in the marker
    /// so readers can detect files cut at a chunk boundary.
    pub fn finish(mut self) -> Result<W> {
        for core in 0..self.cores {
            self.flush_core(core)?;
        }
        let record = &mut self.record;
        record.clear();
        put_varint(record, CORE_END);
        let count_start = record.len();
        put_varint(record, self.total_ops);
        let check = fnv1a64(&record[count_start..]);
        record.extend_from_slice(&check.to_le_bytes());
        self.sink.write_all(record)?;
        self.sink.flush()?;
        Ok(self.sink)
    }
}

// ------------------------------------------------------------------ reader

/// Streaming MTRC reader: decodes one chunk at a time into a caller
/// buffer, verifying checksums as it goes.
///
/// [`MtrcReader::next_chunk`] reads strictly: any damage is an error. On
/// a seekable source, [`MtrcReader::next_chunk_skipping`] instead skips
/// damaged records and tallies them (see [`DamagePolicy`]).
///
/// [`DamagePolicy`]: crate::DamagePolicy
pub struct MtrcReader<R: Read> {
    pub(crate) source: R,
    pub(crate) header: TraceHeader,
    pub(crate) payload: Vec<u8>,
    pub(crate) ops_seen: u64,
    pub(crate) chunk_index: u64,
    pub(crate) done: bool,
    pub(crate) skip: SkipState,
}

impl<R: Read> MtrcReader<R> {
    /// Parses the header from `source` and returns the reader positioned
    /// at the first chunk.
    pub fn new(mut source: R) -> Result<Self> {
        let header = TraceHeader::decode(&mut source)?;
        Ok(Self {
            source,
            header,
            payload: Vec::new(),
            ops_seen: 0,
            chunk_index: 0,
            done: false,
            skip: SkipState::default(),
        })
    }

    /// The file header.
    pub fn header(&self) -> &TraceHeader {
        &self.header
    }

    /// Decodes the next chunk into `ops` (cleared first) and returns its
    /// core id, or `None` after a valid end marker.
    ///
    /// # Errors
    ///
    /// [`TraceError::Truncated`] if the stream ends mid-chunk or without
    /// an end marker, [`TraceError::BadChecksum`] on payload corruption,
    /// [`TraceError::Corrupt`] on structural nonsense (bad core id, op
    /// count mismatch in the end marker, ...).
    pub fn next_chunk(&mut self, ops: &mut Vec<TraceOp>) -> Result<Option<usize>> {
        ops.clear();
        self.read_into(ops)
    }

    /// Decodes the next chunk, appending its ops to `sink`'s vector for
    /// the chunk's core, and returns the core id (`None` after a valid
    /// end marker). On error nothing is appended.
    fn read_into<S: OpSink + ?Sized>(&mut self, sink: &mut S) -> Result<Option<usize>> {
        if self.done {
            return Ok(None);
        }
        match read_raw_chunk(
            &mut self.source,
            self.header.cores,
            self.chunk_index,
            &mut self.payload,
            sink,
        )? {
            RawChunk::End { total } => {
                if total != self.ops_seen {
                    return Err(TraceError::Corrupt(format!(
                        "end marker claims {total} ops, decoded {}",
                        self.ops_seen
                    )));
                }
                self.done = true;
                Ok(None)
            }
            RawChunk::Ops { core, ops } => {
                self.ops_seen += ops;
                self.chunk_index += 1;
                Ok(Some(core))
            }
        }
    }

    /// Ops decoded so far.
    pub fn ops_read(&self) -> u64 {
        self.ops_seen
    }
}

/// Where a decoded chunk's ops go: one buffer for every core (a
/// streaming reader's caller buffer) or one vector per core (a whole-file
/// load, decoding straight into its per-core streams).
pub(crate) trait OpSink {
    /// The vector `core`'s ops are appended to.
    fn ops_for(&mut self, core: usize) -> &mut Vec<TraceOp>;
}

impl OpSink for Vec<TraceOp> {
    fn ops_for(&mut self, _core: usize) -> &mut Vec<TraceOp> {
        self
    }
}

impl OpSink for [Vec<TraceOp>] {
    fn ops_for(&mut self, core: usize) -> &mut Vec<TraceOp> {
        &mut self[core]
    }
}

/// One strictly-decoded record: a chunk of ops or the end marker.
pub(crate) enum RawChunk {
    /// A checksum-valid ops chunk, appended to the caller's sink.
    Ops {
        /// The recorded core stream this chunk belongs to.
        core: usize,
        /// How many ops it held.
        ops: u64,
    },
    /// A checksum-valid end marker claiming `total` ops for the file.
    End {
        /// The writer's total op count.
        total: u64,
    },
}

/// Decodes exactly one record at the stream's current position — the
/// single strict-decode path shared by strict and skipping reads, so both
/// accept byte-for-byte the same records: [`read_frame`],
/// then [`decode_chunk`] into `sink`'s vector for the chunk's core.
/// `chunk_index` only labels [`TraceError::BadChecksum`].
pub(crate) fn read_raw_chunk<R: Read, S: OpSink + ?Sized>(
    source: &mut R,
    cores: usize,
    chunk_index: u64,
    payload: &mut Vec<u8>,
    sink: &mut S,
) -> Result<RawChunk> {
    match read_frame(source, cores, payload)? {
        Frame::End { total } => Ok(RawChunk::End { total }),
        Frame::Ops {
            core,
            count,
            check,
            stored,
        } => {
            decode_chunk(
                payload,
                count,
                check,
                stored,
                chunk_index,
                sink.ops_for(core),
            )?;
            Ok(RawChunk::Ops { core, ops: count })
        }
    }
}

/// A framed record, before its payload is verified or decoded.
enum Frame {
    /// An ops chunk whose payload bytes are in the caller's buffer.
    Ops {
        core: usize,
        /// The claimed op count, at most half the payload length.
        count: u64,
        /// The checksum state after the frame varints.
        check: Fnv64,
        /// The checksum stored after the payload.
        stored: u64,
    },
    /// A checksum-valid end marker.
    End { total: u64 },
}

/// The framing step: the frame varints (hashed as they are read), their
/// bounds checks, the payload bytes into `payload`, and the stored
/// checksum. Verifying and decoding the payload is [`decode_chunk`]'s.
fn read_frame<R: Read>(source: &mut R, cores: usize, payload: &mut Vec<u8>) -> Result<Frame> {
    let mut frame = Hashing::new(source);
    let core = read_varint(&mut frame, "chunk core id")?;
    if core == CORE_END {
        let mut count = Hashing::new(frame.inner);
        let total = read_varint(&mut count, "end-marker op count")?;
        let check = count.check;
        let mut stored = [0u8; 8];
        read_exact(source, &mut stored, "end-marker checksum")?;
        if u64::from_le_bytes(stored) != check.finish() {
            return Err(TraceError::Corrupt("end-marker checksum mismatch".into()));
        }
        return Ok(Frame::End { total });
    }
    if core as usize >= cores {
        return Err(TraceError::Corrupt(format!(
            "chunk core id {core} >= header core count {cores}"
        )));
    }
    let count = read_varint(&mut frame, "chunk op count")?;
    if count == 0 {
        return Err(TraceError::Corrupt("empty chunk".into()));
    }
    let payload_len = read_varint(&mut frame, "chunk payload length")?;
    let check = frame.check;
    if payload_len > (1 << 31) {
        return Err(TraceError::Corrupt(format!(
            "implausible chunk payload length {payload_len}"
        )));
    }
    // Every op is two varints of at least one byte each.
    if count > payload_len / 2 {
        return Err(TraceError::Corrupt(format!(
            "chunk op count {count} does not fit {payload_len} payload bytes"
        )));
    }
    // Allocation grows with the bytes actually read, not the claimed
    // length, so a forged length on a short file cannot reserve gigabytes.
    payload.clear();
    if source.take(payload_len).read_to_end(payload)? as u64 != payload_len {
        return Err(TraceError::Truncated {
            context: "chunk payload",
        });
    }
    let mut stored = [0u8; 8];
    read_exact(source, &mut stored, "chunk checksum")?;
    Ok(Frame::Ops {
        core: core as usize,
        count,
        check,
        stored: u64::from_le_bytes(stored),
    })
}

/// The verify-and-decode pass over one framed payload: each byte is fed
/// to the checksum state `check` as the varint decoder consumes it, and
/// ops are appended to `ops`. On any failure `ops` is truncated back, and
/// the verdicts keep their precedence: a checksum mismatch first (even
/// when the payload also fails to decode), then decode errors in payload
/// order, then trailing bytes.
fn decode_chunk(
    payload: &[u8],
    count: u64,
    mut check: Fnv64,
    stored: u64,
    chunk_index: u64,
    ops: &mut Vec<TraceOp>,
) -> Result<()> {
    let start = ops.len();
    // `read_frame` bounded `count` by the payload bytes actually read.
    ops.reserve(count as usize);
    let mut pos = 0usize;
    let decoded = decode_ops(payload, count, &mut pos, &mut check, ops);
    // Bytes the decoder stopped short of still count toward the checksum.
    check.update(&payload[pos..]);
    let err = if check.finish() != stored {
        TraceError::BadChecksum { chunk: chunk_index }
    } else if let Err(err) = decoded {
        err
    } else if pos != payload.len() {
        TraceError::Corrupt(format!(
            "chunk payload has {} trailing bytes",
            payload.len() - pos
        ))
    } else {
        return Ok(());
    };
    ops.truncate(start);
    Err(err)
}

/// Decodes `count` ops from `payload[*pos..]`, hashing every byte it
/// consumes; stops at the first error with `pos` just past its bytes.
fn decode_ops(
    payload: &[u8],
    count: u64,
    pos: &mut usize,
    check: &mut Fnv64,
    ops: &mut Vec<TraceOp>,
) -> Result<()> {
    let mut deltas = Deltas::default();
    for _ in 0..count {
        let head = take_varint(payload, pos, check, "op flags/Δnon_mem_insts")?;
        let nmi = deltas.nmi + unzigzag(head >> 2);
        if !(0..=u32::MAX as i64).contains(&nmi) {
            return Err(TraceError::Corrupt(format!(
                "non_mem_insts {nmi} out of u32 range"
            )));
        }
        let line_z = take_varint(payload, pos, check, "op Δline_addr")?;
        let line = deltas.line.wrapping_add(unzigzag(line_z) as u64);
        ops.push(TraceOp {
            non_mem_insts: nmi as u32,
            line_addr: line,
            is_write: head & 1 != 0,
            uncacheable: head & 2 != 0,
        });
        deltas = Deltas { line, nmi };
    }
    Ok(())
}

/// Decodes a varint from `buf[*pos..]`, advancing `pos` and hashing each
/// byte it consumes.
#[inline(always)]
fn take_varint(
    buf: &[u8],
    pos: &mut usize,
    check: &mut Fnv64,
    context: &'static str,
) -> Result<u64> {
    let mut out = 0u64;
    let mut shift = 0u32;
    loop {
        let Some(&byte) = buf.get(*pos) else {
            return Err(TraceError::Truncated { context });
        };
        *pos += 1;
        check.byte(byte);
        // The tenth byte may only carry bit 63, and so ends the varint.
        if shift == 63 && byte > 1 {
            return Err(TraceError::Corrupt(format!(
                "varint overflow while reading {context}"
            )));
        }
        out |= ((byte & 0x7f) as u64) << shift;
        if byte < 0x80 {
            return Ok(out);
        }
        shift += 7;
    }
}

/// A `Read` adapter counting the bytes that pass through it.
pub(crate) struct CountingReader<'a, R> {
    pub(crate) inner: &'a mut R,
    pub(crate) bytes: u64,
}

impl<R: Read> Read for CountingReader<'_, R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }
}

// ------------------------------------------------------------ conveniences

/// Reads just the header of the trace file at `path`.
pub fn read_header_path(path: &std::path::Path) -> Result<TraceHeader> {
    let f = std::fs::File::open(path)?;
    let mut r = std::io::BufReader::new(f);
    TraceHeader::decode(&mut r)
}

/// Reads a whole trace strictly, demultiplexed into one op vector per
/// core.
///
/// Memory is proportional to the trace, so for statistics over
/// arbitrarily large files prefer streaming over
/// [`MtrcReader::next_chunk`]. Seekable sources can also be read under a
/// skip policy with [`read_all_with`](crate::read_all_with).
pub fn read_all<R: Read>(source: R) -> Result<(TraceHeader, Vec<Vec<TraceOp>>)> {
    let mut reader = MtrcReader::new(source)?;
    let mut per_core: Vec<Vec<TraceOp>> = (0..reader.header().cores).map(|_| Vec::new()).collect();
    while reader.read_into(&mut per_core[..])?.is_some() {}
    Ok((reader.header, per_core))
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn test_header(cores: usize) -> TraceHeader {
        TraceHeader {
            geometry: Geometry::default(),
            cores,
            base_seed: 7,
            insts_per_core: 1000,
            source: "unit".into(),
        }
    }

    fn roundtrip(ops_per_core: &[Vec<TraceOp>], chunk_ops: usize) -> Vec<Vec<TraceOp>> {
        let header = test_header(ops_per_core.len());
        let mut w = MtrcWriter::with_chunk_ops(Vec::new(), &header, chunk_ops).unwrap();
        // Interleave cores round-robin, as a simulator tee would.
        let longest = ops_per_core.iter().map(Vec::len).max().unwrap_or(0);
        for i in 0..longest {
            for (core, ops) in ops_per_core.iter().enumerate() {
                if let Some(&op) = ops.get(i) {
                    w.push(core, op).unwrap();
                }
            }
        }
        let bytes = w.finish().unwrap();
        let (h, decoded) = read_all(&bytes[..]).unwrap();
        assert_eq!(h, header);
        decoded
    }

    #[test]
    fn empty_trace_roundtrips() {
        assert_eq!(roundtrip(&[vec![], vec![]], 4), vec![vec![], vec![]]);
    }

    #[test]
    fn multi_core_interleaved_roundtrip() {
        let a: Vec<TraceOp> = (0..100).map(|i| TraceOp::read(i as u32, i * 3)).collect();
        let b: Vec<TraceOp> = (0..37)
            .map(|i| TraceOp {
                non_mem_insts: 1000 - i as u32,
                line_addr: u64::MAX - i,
                is_write: i % 2 == 0,
                uncacheable: i % 3 == 0,
            })
            .collect();
        let decoded = roundtrip(&[a.clone(), b.clone()], 8);
        assert_eq!(decoded, vec![a, b]);
    }

    #[test]
    fn sequential_stream_is_compact() {
        let header = test_header(1);
        let mut w = MtrcWriter::new(Vec::new(), &header).unwrap();
        for i in 0..10_000u64 {
            w.push(0, TraceOp::read(4, 1_000_000 + i)).unwrap();
        }
        let bytes = w.finish().unwrap();
        // Steady-state deltas are (Δnmi=0, Δline=1): 2 bytes per op plus
        // header/framing.
        assert!(
            bytes.len() < 10_000 * 2 + 256,
            "encoding not compact: {} bytes",
            bytes.len()
        );
    }

    #[test]
    fn truncation_is_detected_at_every_cut() {
        let header = test_header(1);
        let mut w = MtrcWriter::with_chunk_ops(Vec::new(), &header, 16).unwrap();
        for i in 0..64u64 {
            w.push(0, TraceOp::write(3, i * 17)).unwrap();
        }
        let bytes = w.finish().unwrap();
        // Cut the file at every prefix length: each one must either fail
        // to parse or fail with Truncated — never succeed.
        for cut in 0..bytes.len() {
            let err = read_all(&bytes[..cut]).expect_err("prefix accepted");
            assert!(
                matches!(
                    err,
                    TraceError::Truncated { .. } | TraceError::Corrupt(_) | TraceError::BadMagic(_)
                ),
                "cut {cut}: unexpected error {err}"
            );
        }
    }

    #[test]
    fn bitflips_are_detected() {
        let header = test_header(2);
        let mut w = MtrcWriter::with_chunk_ops(Vec::new(), &header, 8).unwrap();
        for i in 0..40u64 {
            w.push((i % 2) as usize, TraceOp::read(1, i << 33)).unwrap();
        }
        let bytes = w.finish().unwrap();
        let mut rejected = 0usize;
        for bit in 0..bytes.len() * 8 {
            let mut corrupted = bytes.clone();
            corrupted[bit / 8] ^= 1 << (bit % 8);
            if read_all(&corrupted[..]).is_err() {
                rejected += 1;
            }
        }
        // Every header/payload/count bit is covered by a checksum; only
        // flips inside the stored checksum words themselves could in
        // principle collide, and FNV makes even those mismatch here.
        assert_eq!(rejected, bytes.len() * 8, "some bit flip went unnoticed");
    }

    /// A 100-byte file whose chunk frame claims `count` ops in
    /// `payload_len` bytes, followed by `payload`, zero-padded.
    fn forged_chunk_file(count: u64, payload_len: u64, payload: &[u8]) -> Vec<u8> {
        let mut bytes = test_header(1).encode();
        let mut frame = Vec::new();
        for v in [0, count, payload_len] {
            put_varint(&mut frame, v);
        }
        let mut check = Fnv64::new();
        check.update(&frame);
        check.update(payload);
        bytes.extend_from_slice(&frame);
        bytes.extend_from_slice(payload);
        bytes.extend_from_slice(&check.finish().to_le_bytes());
        assert!(bytes.len() <= 100, "forged file is {} bytes", bytes.len());
        bytes.resize(100, 0);
        bytes
    }

    #[test]
    fn forged_chunk_lengths_fail_without_allocating_them() {
        // 2 GiB claimed, a few bytes present: truncation, not a 2 GiB
        // buffer.
        let bytes = forged_chunk_file(1, 1 << 31, &[]);
        let err = read_all(&bytes[..]).expect_err("forged payload length accepted");
        assert!(matches!(err, TraceError::Truncated { .. }), "{err}");
        // A huge op count on top is refused before the payload is read.
        let bytes = forged_chunk_file(1 << 40, 1 << 31, &[]);
        let err = read_all(&bytes[..]).expect_err("forged op count accepted");
        assert!(matches!(err, TraceError::Corrupt(_)), "{err}");
        // So is a checksummed chunk whose count cannot fit its payload,
        // before any op buffer is reserved.
        let bytes = forged_chunk_file(u64::MAX >> 1, 4, &[0; 4]);
        let err = read_all(&bytes[..]).expect_err("forged op count accepted");
        assert!(matches!(err, TraceError::Corrupt(_)), "{err}");
    }

    #[test]
    fn reader_stops_at_end_marker_ignoring_trailing_bytes() {
        let header = test_header(1);
        let w = MtrcWriter::new(Vec::new(), &header).unwrap();
        let mut bytes = w.finish().unwrap();
        bytes.extend_from_slice(&[0xff; 4]);
        assert!(read_all(&bytes[..]).is_ok());
    }

    #[test]
    fn unmappable_headers_are_rejected_at_write_time() {
        let reject = |mutate: fn(&mut TraceHeader)| {
            let mut h = test_header(1);
            mutate(&mut h);
            assert!(
                matches!(MtrcWriter::new(Vec::new(), &h), Err(TraceError::Corrupt(_))),
                "writer accepted invalid header {h:?}"
            );
        };
        reject(|h| h.geometry.line_bytes = 0);
        reject(|h| h.geometry.row_bytes = 0);
        reject(|h| h.geometry.channels = 3);
        reject(|h| h.geometry.banks_per_rank = 33);
        reject(|h| h.geometry.line_bytes = 48); // 8192/48 not a power of two
        reject(|h| h.cores = 0);
        reject(|h| h.source = "x".repeat(MAX_SOURCE_LEN + 1));
    }

    #[test]
    fn wrong_magic_and_version_are_rejected() {
        let header = test_header(1);
        let bytes = MtrcWriter::new(Vec::new(), &header)
            .unwrap()
            .finish()
            .unwrap();
        let mut wrong = bytes.clone();
        wrong[0] = b'X';
        assert!(matches!(read_all(&wrong[..]), Err(TraceError::BadMagic(_))));
        let mut newer = bytes;
        newer[4] = 9; // version LE low byte
        assert!(matches!(
            read_all(&newer[..]),
            Err(TraceError::UnsupportedVersion(9))
        ));
    }
}
