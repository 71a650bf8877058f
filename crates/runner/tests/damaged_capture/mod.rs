//! A damaged copy of the golden MTRC fixture, shared by the CLI and
//! registry tests of the skip-damaged-chunks read path.
//!
//! The fixture holds one chunk per core, so losing any chunk would leave a
//! core with nothing to replay. The copy re-encodes the fixture's ops at
//! [`CHUNK_OPS`] ops per chunk and flips one payload byte of one chunk in
//! the middle of the file: the frame stays intact, so a skip read drops
//! exactly that chunk.

use mithril_trace::{read_all, MtrcWriter, TraceHeader};
use mithril_workloads::TraceOp;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../trace/tests/fixtures/mix-high-c4-i6000-s11.mtrc"
);

/// Ops per chunk of the re-encoded copy.
const CHUNK_OPS: usize = 64;

/// The record (in file order) whose payload is damaged.
const DAMAGED_RECORD: usize = 5;

pub struct DamagedCapture {
    /// The fixture's header, kept by the copy.
    pub header: TraceHeader,
    /// The fixture's ops re-encoded at [`CHUNK_OPS`] ops per chunk.
    pub clean: Vec<u8>,
    /// `clean` with one payload byte of record [`DAMAGED_RECORD`] flipped.
    pub damaged: Vec<u8>,
    /// Per core, the ops of every chunk but the damaged one, in order:
    /// exactly what a skip read of `damaged` must return.
    pub survivors: Vec<Vec<TraceOp>>,
}

fn varint(bytes: &[u8], pos: &mut usize) -> u64 {
    let (mut out, mut shift) = (0u64, 0);
    loop {
        let byte = bytes[*pos];
        *pos += 1;
        out |= u64::from(byte & 0x7f) << shift;
        if byte < 0x80 {
            return out;
        }
        shift += 7;
    }
}

pub fn damaged_capture() -> DamagedCapture {
    let fixture = std::fs::read(FIXTURE).expect("read the golden MTRC fixture");
    let (header, per_core) = read_all(&fixture[..]).expect("the fixture decodes");

    let mut w = MtrcWriter::with_chunk_ops(Vec::new(), &header, CHUNK_OPS).unwrap();
    let longest = per_core.iter().map(Vec::len).max().unwrap();
    for i in 0..longest {
        for (core, ops) in per_core.iter().enumerate() {
            if let Some(&op) = ops.get(i) {
                w.push(core, op).unwrap();
            }
        }
    }
    let clean = w.finish().unwrap();

    // Walk the records after the header, tracking each core's op offset,
    // up to the one to damage.
    let mut header_only = Vec::new();
    drop(MtrcWriter::new(&mut header_only, &header).unwrap());
    let mut pos = header_only.len();
    let mut consumed = vec![0usize; header.cores];
    for _ in 0..DAMAGED_RECORD {
        let core = varint(&clean, &mut pos) as usize;
        consumed[core] += varint(&clean, &mut pos) as usize;
        pos += varint(&clean, &mut pos) as usize + 8;
    }
    let core = varint(&clean, &mut pos) as usize;
    let count = varint(&clean, &mut pos) as usize;
    let payload_len = varint(&clean, &mut pos) as usize;
    let mut damaged = clean.clone();
    damaged[pos + payload_len / 2] ^= 0x40;

    let mut survivors = per_core;
    survivors[core].drain(consumed[core]..consumed[core] + count);
    assert!(
        survivors.iter().all(|ops| !ops.is_empty()),
        "every core keeps ops to replay"
    );
    DamagedCapture {
        header,
        clean,
        damaged,
        survivors,
    }
}
