//! Replaying captured traces through the simulator.
//!
//! [`TraceReplay`] adapts a recorded op vector back into the
//! [`TraceSource`] trait the system simulator consumes; [`replay_thread_set`]
//! loads a multi-core MTRC file into one replay thread per core, ready to
//! hand to `System::new` or the runner's scenario registry
//! (`workload("trace:<path>", ...)`).
//!
//! # Determinism
//!
//! Replay is literal: the ops come off the file exactly as recorded, so —
//! unlike generators — a replay thread needs no RNG at all. The only seed
//! that matters to a replayed scenario is the *scheme* seed the engine
//! derives per sweep position (`mithril_fasthash::splitmix64_seed`).
//! `trace record` derives its generator seed through the same helper at
//! position `(shard 0, offset 0)`, which is how `record → replay`
//! reproduces a live single-scenario run bit-for-bit (see the trace
//! section in `ARCHITECTURE.md`).

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::SystemTime;

use mithril_workloads::{Thread, ThreadSet, TraceOp, TraceSource};

use crate::error::{Result, TraceError};
use crate::format::{read_all_path, TraceHeader};
use crate::resilient::{read_all_resilient_path, ResilienceReport};

/// What a replay source does when the recorded stream runs out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplayEnd {
    /// Restart from the first op (default: an infinite periodic source,
    /// matching the generators' infinite-stream contract).
    #[default]
    Loop,
    /// Keep yielding the final op. Turns the stream into a single-line
    /// hammer after exhaustion; useful to pad a short capture without
    /// re-introducing its earlier traffic.
    HoldLast,
}

impl ReplayEnd {
    /// Parses a policy name (`loop` / `hold-last`).
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "loop" => Some(ReplayEnd::Loop),
            "hold-last" | "hold" => Some(ReplayEnd::HoldLast),
            _ => None,
        }
    }
}

/// An in-memory replay of one core's recorded stream.
///
/// The ops live behind an `Arc` slice, so many replay threads (or many
/// scenarios of a sweep) can share one decoded capture without copies.
pub struct TraceReplay {
    name: String,
    ops: Arc<[TraceOp]>,
    pos: usize,
    end: ReplayEnd,
    laps: u64,
}

impl TraceReplay {
    /// Wraps `ops` as a replay source named `name`.
    ///
    /// # Panics
    ///
    /// Panics if `ops` is empty — an empty stream cannot satisfy the
    /// infinite [`TraceSource`] contract under either end policy.
    pub fn new(name: impl Into<String>, ops: Vec<TraceOp>, end: ReplayEnd) -> Self {
        Self::from_shared(name, ops.into(), end)
    }

    /// As [`TraceReplay::new`], sharing an already-decoded stream.
    ///
    /// # Panics
    ///
    /// Panics if `ops` is empty.
    pub fn from_shared(name: impl Into<String>, ops: Arc<[TraceOp]>, end: ReplayEnd) -> Self {
        assert!(!ops.is_empty(), "cannot replay an empty op stream");
        Self {
            name: name.into(),
            ops,
            pos: 0,
            end,
            laps: 0,
        }
    }

    /// Completed passes over the recorded stream (0 while the first pass
    /// is still in progress; stays 0 forever under `HoldLast`… it counts
    /// wraps, and `HoldLast` never wraps).
    pub fn laps(&self) -> u64 {
        self.laps
    }

    /// Ops in one pass of the recorded stream.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Always false — construction rejects empty streams.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

impl TraceSource for TraceReplay {
    fn next_op(&mut self) -> TraceOp {
        let op = self.ops[self.pos];
        if self.pos + 1 < self.ops.len() {
            self.pos += 1;
        } else {
            match self.end {
                ReplayEnd::Loop => {
                    self.pos = 0;
                    self.laps += 1;
                }
                ReplayEnd::HoldLast => {}
            }
        }
        op
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// One decoded capture shared across scenarios, with the file identity
/// (size + mtime) it was decoded from for staleness checks.
struct CachedCapture {
    len: u64,
    modified: Option<SystemTime>,
    header: TraceHeader,
    per_core: Vec<Arc<[TraceOp]>>,
}

/// Process-wide decoded-capture cache: a sweep instantiates the workload
/// once per scenario (scheme × geometry), and without this every
/// instantiation would re-read and re-decode the whole file from disk.
/// Keyed by path; entries are re-decoded when the file's size or mtime
/// changes. Memory is bounded by the set of distinct captures a process
/// replays — the same bound as replaying them at all.
static CAPTURE_CACHE: OnceLock<Mutex<HashMap<PathBuf, Arc<CachedCapture>>>> = OnceLock::new();

fn load_capture(path: &Path) -> Result<Arc<CachedCapture>> {
    let meta = std::fs::metadata(path)?;
    let (len, modified) = (meta.len(), meta.modified().ok());
    let cache = CAPTURE_CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(hit) = cache.lock().expect("capture cache poisoned").get(path) {
        if hit.len == len && hit.modified == modified {
            return Ok(Arc::clone(hit));
        }
    }
    // Decode outside the lock so parallel workers loading *different*
    // captures don't serialize; racing loads of the same file are
    // idempotent (last insert wins).
    let (header, per_core) = read_all_path(path)?;
    for (core, ops) in per_core.iter().enumerate() {
        if ops.is_empty() {
            return Err(TraceError::Corrupt(format!(
                "core {core} of {} has no recorded ops",
                path.display()
            )));
        }
    }
    let entry = Arc::new(CachedCapture {
        len,
        modified,
        header,
        per_core: per_core.into_iter().map(Arc::from).collect(),
    });
    cache
        .lock()
        .expect("capture cache poisoned")
        .insert(path.to_path_buf(), Arc::clone(&entry));
    Ok(entry)
}

/// Loads the MTRC file at `path` into a [`ThreadSet`] of per-core replay
/// threads (set name `trace:<source>`), returning the header alongside.
///
/// Decoded captures are cached process-wide (invalidated on file size or
/// mtime change), so sweeping many schemes over one capture decodes it
/// once; each call still returns fresh replay threads positioned at op 0.
///
/// # Errors
///
/// Any codec error, plus [`TraceError::Corrupt`] if a recorded core has
/// no ops (it could never satisfy the infinite-source contract).
pub fn replay_thread_set(path: &Path, end: ReplayEnd) -> Result<(TraceHeader, ThreadSet)> {
    let capture = load_capture(path)?;
    let header = capture.header.clone();
    let threads = capture
        .per_core
        .iter()
        .enumerate()
        .map(|(core, ops)| {
            let name = format!("replay:{}/{core}", header.source);
            Thread::new(
                name.clone(),
                Box::new(TraceReplay::from_shared(name, Arc::clone(ops), end)),
            )
        })
        .collect();
    let set = ThreadSet {
        name: format!("trace:{}", header.source),
        threads,
    };
    Ok((header, set))
}

/// As [`replay_thread_set`], but through the corruption-tolerant reader:
/// damaged chunks are skipped (tallied in the returned
/// [`ResilienceReport`]) and the surviving ops replay in recorded order.
/// The runner's `trace+skip:<path>` registry names use this loader.
///
/// Not cached: a damaged capture is an incident being inspected, not a
/// fixture swept over thousands of scenarios — and caching would hide
/// the report.
///
/// # Errors
///
/// I/O failure, a damaged header, or a capture where some core's stream
/// lost *all* its ops to corruption (it could never satisfy the
/// infinite-source contract).
pub fn replay_thread_set_resilient(
    path: &Path,
    end: ReplayEnd,
) -> Result<(TraceHeader, ThreadSet, ResilienceReport)> {
    let (header, per_core, report) = read_all_resilient_path(path)?;
    for (core, ops) in per_core.iter().enumerate() {
        if ops.is_empty() {
            return Err(TraceError::Corrupt(format!(
                "core {core} of {} has no surviving ops ({} chunk(s) skipped)",
                path.display(),
                report.skipped_chunks
            )));
        }
    }
    let threads = per_core
        .into_iter()
        .enumerate()
        .map(|(core, ops)| {
            let name = format!("replay:{}/{core}", header.source);
            Thread::new(name.clone(), Box::new(TraceReplay::new(name, ops, end)))
        })
        .collect();
    let set = ThreadSet {
        name: format!("trace+skip:{}", header.source),
        threads,
    };
    Ok((header, set, report))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops(n: u64) -> Vec<TraceOp> {
        (0..n).map(|i| TraceOp::read(i as u32, i * 7)).collect()
    }

    #[test]
    fn looping_replay_is_periodic() {
        let mut r = TraceReplay::new("t", ops(3), ReplayEnd::Loop);
        let seen: Vec<u64> = (0..7).map(|_| r.next_op().line_addr).collect();
        assert_eq!(seen, vec![0, 7, 14, 0, 7, 14, 0]);
        assert_eq!(r.laps(), 2);
    }

    #[test]
    fn hold_last_repeats_final_op() {
        let mut r = TraceReplay::new("t", ops(2), ReplayEnd::HoldLast);
        let seen: Vec<u64> = (0..5).map(|_| r.next_op().line_addr).collect();
        assert_eq!(seen, vec![0, 7, 7, 7, 7]);
        assert_eq!(r.laps(), 0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_stream_is_rejected() {
        let _ = TraceReplay::new("t", Vec::new(), ReplayEnd::Loop);
    }
}
