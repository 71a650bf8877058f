//! The two-pass MTRC v1 chunk decoder, kept as a test-only reference for
//! the shipped one-pass decoder in `mithril_trace`'s `format` module.
//!
//! It reads a record's frame (through a tee), then its whole payload and
//! stored checksum, verifies the checksum over frame ++ payload, and only
//! then decodes the ops from the verified buffer with [`get_varint`].
//! [`read_all`] is the strict reader built on it and [`read_all_resilient`]
//! the skip-and-tally reader, with the same resynchronization as
//! `MtrcReader::next_chunk_skipping` but every record decoded here. Header parsing is
//! not duplicated: both sides share the shipped header decoder.

use std::io::{Cursor, Read, Seek, SeekFrom};

use mithril_trace::{MtrcReader, ResilienceReport, Result, TraceError, TraceHeader};
use mithril_workloads::TraceOp;

const CORE_END: u64 = u64::MAX;
const MAX_CHAIN_STEPS: u32 = 1024;

pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Decodes a varint from `buf[*pos..]`, advancing `pos`.
pub fn get_varint(buf: &[u8], pos: &mut usize, context: &'static str) -> Result<u64> {
    let mut out = 0u64;
    let mut shift = 0u32;
    loop {
        let &byte = buf.get(*pos).ok_or(TraceError::Truncated { context })?;
        *pos += 1;
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

fn read_varint<R: Read>(r: &mut R, context: &'static str) -> Result<u64> {
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

fn read_exact<R: Read>(r: &mut R, buf: &mut [u8], context: &'static str) -> Result<()> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            TraceError::Truncated { context }
        } else {
            TraceError::Io(e)
        }
    })
}

/// A `Read` adapter copying everything it reads into a side buffer.
struct Tee<'a, R> {
    inner: &'a mut R,
    copy: &'a mut Vec<u8>,
}

impl<R: Read> Read for Tee<'_, R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.copy.extend_from_slice(&buf[..n]);
        Ok(n)
    }
}

/// A `Read` adapter counting the bytes that pass through it.
struct Counting<'a, R> {
    inner: &'a mut R,
    bytes: u64,
}

impl<R: Read> Read for Counting<'_, R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }
}

enum RawChunk {
    Ops { core: usize },
    End { total: u64 },
}

/// Decodes exactly one record at the stream's current position into `ops`
/// (cleared first): frame, payload and checksum first, then the ops.
fn read_raw_chunk<R: Read>(
    source: &mut R,
    cores: usize,
    chunk_index: u64,
    payload: &mut Vec<u8>,
    ops: &mut Vec<TraceOp>,
) -> Result<RawChunk> {
    ops.clear();
    let mut frame_bytes = Vec::new();
    let core = {
        let mut tee = Tee {
            inner: source,
            copy: &mut frame_bytes,
        };
        read_varint(&mut tee, "chunk core id")?
    };
    if core == CORE_END {
        let mut count_bytes = Vec::new();
        let total = {
            let mut tee = Tee {
                inner: source,
                copy: &mut count_bytes,
            };
            read_varint(&mut tee, "end-marker op count")?
        };
        let mut stored = [0u8; 8];
        read_exact(source, &mut stored, "end-marker checksum")?;
        if u64::from_le_bytes(stored) != fnv1a64(&count_bytes) {
            return Err(TraceError::Corrupt("end-marker checksum mismatch".into()));
        }
        return Ok(RawChunk::End { total });
    }
    if core as usize >= cores {
        return Err(TraceError::Corrupt(format!(
            "chunk core id {core} >= header core count {cores}"
        )));
    }
    let (count, payload_len) = {
        let mut tee = Tee {
            inner: source,
            copy: &mut frame_bytes,
        };
        let count = read_varint(&mut tee, "chunk op count")?;
        if count == 0 {
            return Err(TraceError::Corrupt("empty chunk".into()));
        }
        let payload_len = read_varint(&mut tee, "chunk payload length")?;
        (count, payload_len)
    };
    if payload_len > (1 << 31) {
        return Err(TraceError::Corrupt(format!(
            "implausible chunk payload length {payload_len}"
        )));
    }
    if count > payload_len / 2 {
        return Err(TraceError::Corrupt(format!(
            "chunk op count {count} does not fit {payload_len} payload bytes"
        )));
    }
    payload.clear();
    if source.take(payload_len).read_to_end(payload)? as u64 != payload_len {
        return Err(TraceError::Truncated {
            context: "chunk payload",
        });
    }
    let mut stored = [0u8; 8];
    read_exact(source, &mut stored, "chunk checksum")?;
    frame_bytes.extend_from_slice(payload);
    if u64::from_le_bytes(stored) != fnv1a64(&frame_bytes) {
        return Err(TraceError::BadChecksum { chunk: chunk_index });
    }

    ops.reserve(count as usize);
    let mut pos = 0usize;
    let mut prev_line = 0u64;
    let mut prev_nmi = 0i64;
    for _ in 0..count {
        let head = get_varint(payload, &mut pos, "op flags/Δnon_mem_insts")?;
        let nmi = prev_nmi + unzigzag(head >> 2);
        if !(0..=u32::MAX as i64).contains(&nmi) {
            return Err(TraceError::Corrupt(format!(
                "non_mem_insts {nmi} out of u32 range"
            )));
        }
        let line_z = get_varint(payload, &mut pos, "op Δline_addr")?;
        let line = prev_line.wrapping_add(unzigzag(line_z) as u64);
        ops.push(TraceOp {
            non_mem_insts: nmi as u32,
            line_addr: line,
            is_write: head & 1 != 0,
            uncacheable: head & 2 != 0,
        });
        prev_line = line;
        prev_nmi = nmi;
    }
    if pos != payload.len() {
        return Err(TraceError::Corrupt(format!(
            "chunk payload has {} trailing bytes",
            payload.len() - pos
        )));
    }
    Ok(RawChunk::Ops {
        core: core as usize,
    })
}

/// The shipped header decoder, plus the number of bytes it consumed.
fn header(bytes: &[u8]) -> Result<(TraceHeader, u64)> {
    let mut source = bytes;
    let mut counting = Counting {
        inner: &mut source,
        bytes: 0,
    };
    let header = MtrcReader::new(&mut counting)?.header().clone();
    Ok((header, counting.bytes))
}

/// Strict whole-file read over the reference decoder.
pub fn read_all(bytes: &[u8]) -> Result<(TraceHeader, Vec<Vec<TraceOp>>)> {
    let (header, header_len) = header(bytes)?;
    let mut source = &bytes[header_len as usize..];
    let mut per_core: Vec<Vec<TraceOp>> = vec![Vec::new(); header.cores];
    let (mut payload, mut chunk) = (Vec::new(), Vec::new());
    let (mut ops_seen, mut chunk_index) = (0u64, 0u64);
    loop {
        match read_raw_chunk(
            &mut source,
            header.cores,
            chunk_index,
            &mut payload,
            &mut chunk,
        )? {
            RawChunk::End { total } => {
                if total != ops_seen {
                    return Err(TraceError::Corrupt(format!(
                        "end marker claims {total} ops, decoded {ops_seen}"
                    )));
                }
                return Ok((header, per_core));
            }
            RawChunk::Ops { core } => {
                ops_seen += chunk.len() as u64;
                chunk_index += 1;
                per_core[core].extend_from_slice(&chunk);
            }
        }
    }
}

/// The resilient reader's skip-and-resynchronize walk, every record
/// decoded by [`read_raw_chunk`].
struct Resilient<'a> {
    source: Cursor<&'a [u8]>,
    cores: usize,
    file_len: u64,
    payload: Vec<u8>,
    scratch: Vec<TraceOp>,
    chunk_index: u64,
}

impl Resilient<'_> {
    fn claimed_extent_at(&mut self, offset: u64) -> Result<Option<u64>> {
        self.source.seek(SeekFrom::Start(offset))?;
        let mut counter = Counting {
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
        if core >= self.cores as u64 {
            return Ok(None);
        }
        let count = lenient!(read_varint(&mut counter, "resync op count"));
        let payload_len = lenient!(read_varint(&mut counter, "resync payload length"));
        if count == 0 || payload_len > (1 << 31) || payload_len > count.saturating_mul(20) {
            return Ok(None);
        }
        Ok(Some(counter.bytes + payload_len + 8))
    }

    fn probe(&mut self, offset: u64) -> Result<bool> {
        self.source.seek(SeekFrom::Start(offset))?;
        match read_raw_chunk(
            &mut self.source,
            self.cores,
            self.chunk_index,
            &mut self.payload,
            &mut self.scratch,
        ) {
            Ok(_) => Ok(true),
            Err(TraceError::Io(e)) => Err(TraceError::Io(e)),
            Err(_) => Ok(false),
        }
    }

    fn chain_validates(&mut self, mut offset: u64) -> Result<bool> {
        for _ in 0..MAX_CHAIN_STEPS {
            if offset == self.file_len || self.probe(offset)? {
                return Ok(true);
            }
            match self.claimed_extent_at(offset)? {
                Some(extent) if offset + extent <= self.file_len => offset += extent,
                _ => return Ok(false),
            }
        }
        Ok(false)
    }

    fn resync(&mut self, start: u64) -> Result<u64> {
        if let Some(extent) = self.claimed_extent_at(start)? {
            let candidate = start + extent;
            if candidate <= self.file_len && self.chain_validates(candidate)? {
                return Ok(candidate);
            }
        }
        for offset in start + 1..self.file_len {
            if self.probe(offset)? {
                return Ok(offset);
            }
        }
        Ok(self.file_len)
    }
}

/// Skip-and-tally whole-file read over the reference decoder.
pub fn read_all_resilient(
    bytes: &[u8],
) -> Result<(TraceHeader, Vec<Vec<TraceOp>>, ResilienceReport)> {
    let (header, header_len) = header(bytes)?;
    let mut r = Resilient {
        source: Cursor::new(bytes),
        cores: header.cores,
        file_len: bytes.len() as u64,
        payload: Vec::new(),
        scratch: Vec::new(),
        chunk_index: 0,
    };
    r.source.seek(SeekFrom::Start(header_len))?;
    let mut per_core: Vec<Vec<TraceOp>> = vec![Vec::new(); header.cores];
    let mut report = ResilienceReport::default();
    let (mut payload, mut chunk) = (Vec::new(), Vec::new());
    let mut ops_seen = 0u64;
    loop {
        let start = r.source.stream_position()?;
        if start >= r.file_len {
            report.missing_end_marker = true;
            return Ok((header, per_core, report));
        }
        match read_raw_chunk(
            &mut r.source,
            r.cores,
            r.chunk_index,
            &mut payload,
            &mut chunk,
        ) {
            Ok(RawChunk::End { total }) => {
                report.end_count_mismatch = total != ops_seen;
                return Ok((header, per_core, report));
            }
            Ok(RawChunk::Ops { core }) => {
                ops_seen += chunk.len() as u64;
                r.chunk_index += 1;
                per_core[core].extend_from_slice(&chunk);
            }
            Err(TraceError::Io(e)) => return Err(TraceError::Io(e)),
            Err(_) => {
                let resumed_at = r.resync(start)?;
                report.skipped_chunks += 1;
                report.skipped_bytes += resumed_at - start;
                r.source.seek(SeekFrom::Start(resumed_at))?;
            }
        }
    }
}

/// One clean record's position in a file: `(start, frame_len,
/// payload_len)` of every ops chunk, in file order.
pub fn layout(bytes: &[u8]) -> Vec<(usize, usize, usize)> {
    let (_, header_len) = header(bytes).expect("clean header");
    let mut pos = header_len as usize;
    let mut out = Vec::new();
    loop {
        let start = pos;
        let core = get_varint(bytes, &mut pos, "core").expect("clean frame");
        if core == CORE_END {
            return out;
        }
        get_varint(bytes, &mut pos, "count").expect("clean frame");
        let payload_len = get_varint(bytes, &mut pos, "len").expect("clean frame") as usize;
        out.push((start, pos - start, payload_len));
        pos += payload_len + 8;
    }
}
