//! Differential mutation test: the shipped one-pass MTRC decoder against
//! the two-pass reference in `reference/`.
//!
//! Random multi-core streams are encoded by the shipped writer, then
//! damaged: truncated at a byte, a bit flipped, a byte range duplicated or
//! spliced, or one frame's `payload_len` inflated (with and without the
//! record's checksum re-sealed over the inflated extent), or a payload
//! byte overwritten under a re-sealed checksum so the decode errors
//! themselves surface. For every damaged file, `read_all`, a streaming
//! `MtrcReader` and both under the skip policy (`read_all_with(Skip)`,
//! `next_chunk_skipping`) must return what the reference returns: the
//! same ops, or the same error (variant, chunk index and message); and
//! for skipping reads the same damage report.

mod reference;

use std::io::Cursor;

use mithril_dram::Geometry;
use mithril_trace::{
    read_all, read_all_with, DamagePolicy, MtrcReader, MtrcWriter, TraceError, TraceHeader,
};
use mithril_workloads::TraceOp;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

type Outcome<T> = std::result::Result<T, String>;

fn outcome<T>(r: mithril_trace::Result<T>) -> Outcome<T> {
    r.map_err(|e: TraceError| format!("{e:?}"))
}

fn op(rng: &mut SmallRng, prev: &TraceOp) -> TraceOp {
    match rng.random_range(0u8..4) {
        // Arbitrary 64-bit values: wrap-around deltas, long varints.
        0 => TraceOp {
            non_mem_insts: rng.random(),
            line_addr: rng.random(),
            is_write: rng.random(),
            uncacheable: rng.random(),
        },
        // Sequential runs: the 2-byte fast path.
        1 => TraceOp::read(prev.non_mem_insts, prev.line_addr.wrapping_add(1)),
        // Small strides and instruction gaps.
        2 => TraceOp::write(
            rng.random_range(0u32..64),
            prev.line_addr.wrapping_add(rng.random_range(0u64..4096)),
        ),
        _ => TraceOp::read(rng.random_range(0u32..3), rng.random_range(0u64..1 << 20)),
    }
}

/// A random capture: 1..4 cores, up to 120 ops each, interleaved as a
/// simulator tee would, at a random chunk size.
fn capture(rng: &mut SmallRng) -> Vec<u8> {
    let cores = rng.random_range(1usize..4);
    let header = TraceHeader {
        geometry: Geometry::default(),
        cores,
        base_seed: rng.random(),
        insts_per_core: 0,
        source: "diff".into(),
    };
    let streams: Vec<Vec<TraceOp>> = (0..cores)
        .map(|_| {
            let n = rng.random_range(0usize..120);
            let mut prev = TraceOp::read(0, 0);
            (0..n)
                .map(|_| {
                    prev = op(rng, &prev);
                    prev
                })
                .collect()
        })
        .collect();
    let chunk_ops = rng.random_range(1usize..48);
    let mut w = MtrcWriter::with_chunk_ops(Vec::new(), &header, chunk_ops).unwrap();
    let longest = streams.iter().map(Vec::len).max().unwrap_or(0);
    for i in 0..longest {
        for (core, ops) in streams.iter().enumerate() {
            if let Some(&op) = ops.get(i) {
                w.push(core, op).unwrap();
            }
        }
    }
    w.finish().unwrap()
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

/// Replaces the chunk at `(start, frame_len, payload_len)` by a record of
/// the same core claiming `count` ops (the original count when `None`)
/// and `claimed_len` payload bytes, followed by `payload` and a checksum:
/// re-sealed over the new record when `reseal`, else the original one.
fn forge_chunk(
    bytes: &[u8],
    (start, frame_len, payload_len): (usize, usize, usize),
    count: Option<u64>,
    claimed_len: u64,
    payload: &[u8],
    reseal: bool,
) -> Vec<u8> {
    let mut pos = start;
    let core = reference::get_varint(bytes, &mut pos, "frame").unwrap();
    let original_count = reference::get_varint(bytes, &mut pos, "frame").unwrap();
    let mut record = Vec::new();
    for v in [core, count.unwrap_or(original_count), claimed_len] {
        put_varint(&mut record, v);
    }
    record.extend_from_slice(payload);
    let stored_at = start + frame_len + payload_len;
    let check = if reseal {
        reference::fnv1a64(&record).to_le_bytes()
    } else {
        bytes[stored_at..stored_at + 8].try_into().unwrap()
    };
    let mut out = bytes[..start].to_vec();
    out.extend_from_slice(&record);
    out.extend_from_slice(&check);
    out.extend_from_slice(&bytes[stored_at + 8..]);
    out
}

/// One random damage of `bytes`, with a label for failure messages.
fn mutate(rng: &mut SmallRng, bytes: &[u8]) -> (String, Vec<u8>) {
    let len = bytes.len();
    let chunks = reference::layout(bytes);
    let kind = rng.random_range(0u8..7);
    if kind >= 4 && !chunks.is_empty() {
        let c = rng.random_range(0..chunks.len());
        let (start, frame_len, payload_len) = chunks[c];
        let payload = &bytes[start + frame_len..start + frame_len + payload_len];
        let len = payload_len as u64;
        return match kind {
            4 => {
                let extra = rng.random_range(1u64..64);
                let label = format!("inflate chunk {c} payload_len by {extra}");
                let forged = forge_chunk(bytes, chunks[c], None, len + extra, payload, false);
                (label, forged)
            }
            5 => {
                // Claimed and present: the checksum passes, so the
                // decoder sees the junk as the payload's tail.
                let extra = rng.random_range(1usize..16);
                let junk: Vec<u8> = (0..extra).map(|_| rng.random()).collect();
                let label = format!("inflate chunk {c} payload_len by {extra}, re-sealed");
                let inflated = [payload, &junk].concat();
                let new_len = inflated.len() as u64;
                let forged = forge_chunk(bytes, chunks[c], None, new_len, &inflated, true);
                (label, forged)
            }
            _ => {
                let at = rng.random_range(0..payload_len);
                let byte: u8 = rng.random();
                let label = format!("payload byte {at} of chunk {c} = {byte:#x}, re-sealed");
                let mut damaged = payload.to_vec();
                damaged[at] = byte;
                let sealed = forge_chunk(bytes, chunks[c], None, len, &damaged, true);
                (label, sealed)
            }
        };
    }
    match kind % 4 {
        0 => {
            let cut = rng.random_range(0..len);
            (format!("truncate at {cut}"), bytes[..cut].to_vec())
        }
        1 => {
            let at = rng.random_range(0..len);
            let bit = rng.random_range(0u8..8);
            let mut damaged = bytes.to_vec();
            damaged[at] ^= 1 << bit;
            (format!("flip byte {at} bit {bit}"), damaged)
        }
        2 => {
            let at = rng.random_range(0..len);
            let n = rng.random_range(1..(len - at).min(40) + 1);
            let mut damaged = bytes[..at + n].to_vec();
            damaged.extend_from_slice(&bytes[at..]);
            (format!("duplicate {n} bytes at {at}"), damaged)
        }
        _ => {
            let src = rng.random_range(0..len);
            let n = rng.random_range(1..(len - src).min(40) + 1);
            let dst = rng.random_range(0..len);
            let mut damaged = bytes[..dst].to_vec();
            damaged.extend_from_slice(&bytes[src..src + n]);
            damaged.extend_from_slice(&bytes[dst..]);
            (format!("splice {n} bytes from {src} in at {dst}"), damaged)
        }
    }
}

/// Asserts every shipped reader agrees with the reference on `bytes`.
fn assert_readers_agree(label: &str, bytes: &[u8]) {
    let want = outcome(reference::read_all(bytes));
    let got = outcome(read_all(bytes));
    assert_eq!(got, want, "read_all after {label}");

    let streamed = outcome((|| {
        let mut reader = MtrcReader::new(bytes)?;
        let mut per_core = vec![Vec::new(); reader.header().cores];
        let mut chunk = Vec::new();
        while let Some(core) = reader.next_chunk(&mut chunk)? {
            per_core[core].extend_from_slice(&chunk);
        }
        let total: usize = per_core.iter().map(Vec::len).sum();
        assert_eq!(reader.ops_read(), total as u64);
        Ok((reader.header().clone(), per_core))
    })());
    assert_eq!(streamed, want, "MtrcReader after {label}");

    let want = outcome(reference::read_all_resilient(bytes));
    let got = outcome(read_all_with(Cursor::new(bytes), DamagePolicy::Skip));
    assert_eq!(got, want, "read_all_with(Skip) after {label}");

    let streamed = outcome((|| {
        let mut reader = MtrcReader::new(Cursor::new(bytes))?;
        let mut per_core = vec![Vec::new(); reader.header().cores];
        let mut chunk = Vec::new();
        while let Some(core) = reader.next_chunk_skipping(&mut chunk)? {
            per_core[core].extend_from_slice(&chunk);
        }
        Ok((reader.header().clone(), per_core, reader.report()))
    })());
    assert_eq!(
        streamed, want,
        "MtrcReader::next_chunk_skipping after {label}"
    );
}

#[test]
fn clean_captures_decode_like_the_reference() {
    let mut rng = SmallRng::seed_from_u64(1);
    for _ in 0..200 {
        let bytes = capture(&mut rng);
        assert!(reference::read_all(&bytes).is_ok());
        assert_readers_agree("nothing", &bytes);
    }
}

#[test]
fn damaged_captures_fail_like_the_reference() {
    let mut rng = SmallRng::seed_from_u64(2);
    for _ in 0..150 {
        let bytes = capture(&mut rng);
        for _ in 0..8 {
            let (label, damaged) = mutate(&mut rng, &bytes);
            assert_readers_agree(&label, &damaged);
        }
    }
}

#[test]
fn every_truncation_fails_like_the_reference() {
    let mut rng = SmallRng::seed_from_u64(3);
    for _ in 0..4 {
        let bytes = capture(&mut rng);
        for cut in 0..bytes.len() {
            assert_readers_agree(&format!("truncate at {cut}"), &bytes[..cut]);
        }
    }
}

#[test]
fn resealed_payload_damage_reports_decode_errors() {
    // The mutation mix must reach the errors a checksum cannot hide:
    // with the record re-sealed, damage surfaces as a decode error or as
    // trailing bytes, in payload order, exactly as the reference reports.
    let mut rng = SmallRng::seed_from_u64(4);
    let (mut decode_errors, mut trailing) = (0, 0);
    for _ in 0..300 {
        let bytes = capture(&mut rng);
        let (label, damaged) = mutate(&mut rng, &bytes);
        if !label.contains("re-sealed") {
            continue;
        }
        match reference::read_all(&damaged) {
            Err(TraceError::Corrupt(msg)) if msg.contains("trailing") => trailing += 1,
            Err(TraceError::Corrupt(_) | TraceError::Truncated { .. }) => decode_errors += 1,
            _ => {}
        }
        assert_readers_agree(&label, &damaged);
    }
    assert!(
        decode_errors > 0 && trailing > 0,
        "{decode_errors} {trailing}"
    );
}

#[test]
fn varint_edges_fail_like_the_reference() {
    // Ten-byte varints whose last byte carries bit 63 or more, varints
    // running off the payload, and both op fields, under valid checksums.
    let mut rng = SmallRng::seed_from_u64(5);
    let bytes = loop {
        let bytes = capture(&mut rng);
        if !reference::layout(&bytes).is_empty() {
            break bytes;
        }
    };
    let chunk = reference::layout(&bytes)[0];
    for last in 0..=255u8 {
        let long = [[0xff; 9].as_slice(), &[last]].concat();
        let payloads = [
            [long.as_slice(), &[0]].concat(),
            [&[0], long.as_slice()].concat(),
            [long.as_slice(), &long].concat(),
            long.clone(),
        ];
        for payload in &payloads {
            for count in [1, payload.len() as u64 / 2] {
                let forged = forge_chunk(
                    &bytes,
                    chunk,
                    Some(count),
                    payload.len() as u64,
                    payload,
                    true,
                );
                let label = format!("chunk 0 forged as {count} ops in {payload:02x?}");
                assert_readers_agree(&label, &forged);
            }
        }
    }
}
