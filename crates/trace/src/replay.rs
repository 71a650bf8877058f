//! Replaying captured traces through the simulator.
//!
//! [`TraceReplay`] adapts a recorded op vector back into the
//! [`TraceSource`] trait the system simulator consumes; [`load_capture`]
//! decodes an MTRC file once per process and damage policy, and
//! [`replay_thread_set`] turns a loaded capture into one replay thread per
//! core, ready to hand to `System::new` or the runner's scenario registry
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
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::SystemTime;

use mithril_workloads::{Thread, ThreadSet, TraceOp, TraceSource};

use crate::error::{Result, TraceError};
use crate::format::TraceHeader;
use crate::resilient::{read_all_with, DamagePolicy, ResilienceReport};

/// What a replay source does when the recorded stream runs out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplayEnd {
    /// Restart from the first op: an infinite periodic source, matching
    /// the generators' infinite-stream contract.
    #[default]
    Loop,
}

/// An in-memory replay of one core's recorded stream.
///
/// The ops live behind an `Arc` slice, so many replay threads (or many
/// scenarios of a sweep) can share one decoded capture without copies.
pub struct TraceReplay {
    name: String,
    ops: Arc<[TraceOp]>,
    pos: usize,
}

impl TraceReplay {
    /// Wraps the shared, already-decoded stream `ops` as a replay source
    /// named `name`, ending as `end` says.
    ///
    /// # Panics
    ///
    /// Panics if `ops` is empty — an empty stream cannot satisfy the
    /// infinite [`TraceSource`] contract.
    pub fn from_shared(name: impl Into<String>, ops: Arc<[TraceOp]>, end: ReplayEnd) -> Self {
        let ReplayEnd::Loop = end;
        assert!(!ops.is_empty(), "cannot replay an empty op stream");
        Self {
            name: name.into(),
            ops,
            pos: 0,
        }
    }
}

impl TraceSource for TraceReplay {
    fn next_op(&mut self) -> TraceOp {
        let op = self.ops[self.pos];
        self.pos += 1;
        if self.pos == self.ops.len() {
            self.pos = 0;
        }
        op
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// One decoded capture, shared by every scenario that replays it.
pub struct Capture {
    /// The capture's header.
    pub header: TraceHeader,
    /// Each core's decoded stream, in recorded order.
    pub per_core: Vec<Arc<[TraceOp]>>,
    /// What the read skipped (always clean under
    /// [`DamagePolicy::Strict`]).
    pub report: ResilienceReport,
    /// The file identity (size + mtime) it was decoded from, for
    /// staleness checks.
    len: u64,
    modified: Option<SystemTime>,
    /// Set once [`Capture::take_skip_line`] has handed out the line.
    skip_reported: AtomicBool,
}

impl Capture {
    /// The [`ResilienceReport::skip_line`] of the read that decoded this
    /// capture, returned by the first call only: every scenario that
    /// replays a damaged capture shares this decode, and its damage is
    /// reported once, not once per scenario.
    pub fn take_skip_line(&self, label: &str) -> Option<String> {
        let line = self.report.skip_line(label)?;
        (!self.skip_reported.swap(true, Ordering::Relaxed)).then_some(line)
    }
}

type CaptureCache = Mutex<HashMap<(PathBuf, DamagePolicy), Arc<Capture>>>;

/// Process-wide decoded-capture cache: a sweep instantiates the workload
/// once per scenario (scheme × geometry), and without this every
/// instantiation would re-read and re-decode the whole file from disk.
/// Keyed by path and damage policy; entries are re-decoded when the
/// file's size or mtime changes. Memory is bounded by the set of distinct
/// captures a process replays — the same bound as replaying them at all.
static CAPTURE_CACHE: OnceLock<CaptureCache> = OnceLock::new();

/// Loads the MTRC file at `path` under `policy`, decoding it once per
/// process: later loads of the same unchanged file under the same policy
/// return the cached capture, with the [`ResilienceReport`] of the read
/// that decoded it.
///
/// # Errors
///
/// I/O failure, plus any codec error under [`DamagePolicy::Strict`] or a
/// damaged header under [`DamagePolicy::Skip`].
pub fn load_capture(path: &Path, policy: DamagePolicy) -> Result<Arc<Capture>> {
    let meta = std::fs::metadata(path)?;
    let (len, modified) = (meta.len(), meta.modified().ok());
    let key = (path.to_path_buf(), policy);
    let cache = CAPTURE_CACHE.get_or_init(Default::default);
    if let Some(hit) = cache.lock().expect("capture cache poisoned").get(&key) {
        if hit.len == len && hit.modified == modified {
            return Ok(Arc::clone(hit));
        }
    }
    // Decode outside the lock so parallel workers loading *different*
    // captures don't serialize; of racing loads of the same file, the
    // first insert wins, so every caller shares one decode.
    let file = std::io::BufReader::new(std::fs::File::open(path)?);
    let (header, per_core, report) = read_all_with(file, policy)?;
    let entry = Arc::new(Capture {
        header,
        per_core: per_core.into_iter().map(Arc::from).collect(),
        report,
        len,
        modified,
        skip_reported: AtomicBool::new(false),
    });
    let mut cache = cache.lock().expect("capture cache poisoned");
    let slot = cache.entry(key).or_insert_with(|| Arc::clone(&entry));
    if slot.len != len || slot.modified != modified {
        *slot = entry;
    }
    Ok(Arc::clone(slot))
}

/// Loads the MTRC file at `path` under `policy` (through
/// [`load_capture`]'s cache) into a [`ThreadSet`] of per-core looping
/// replay threads, named `<prefix>:<source>` after the policy's registry
/// prefix, returned alongside the capture it replays. Each call returns
/// fresh replay threads positioned at op 0.
///
/// # Errors
///
/// Any [`load_capture`] error, plus [`TraceError::Corrupt`] if a core has
/// no ops to replay — none recorded, or all lost to skipped damage (it
/// could never satisfy the infinite-source contract).
pub fn replay_thread_set(path: &Path, policy: DamagePolicy) -> Result<(Arc<Capture>, ThreadSet)> {
    let capture = load_capture(path, policy)?;
    if let Some(core) = capture.per_core.iter().position(|ops| ops.is_empty()) {
        return Err(TraceError::Corrupt(format!(
            "core {core} has no ops to replay ({} damaged chunk(s) skipped)",
            capture.report.skipped_chunks
        )));
    }
    let source = &capture.header.source;
    let threads = capture
        .per_core
        .iter()
        .enumerate()
        .map(|(core, ops)| {
            let name = format!("replay:{source}/{core}");
            let replay = TraceReplay::from_shared(name.clone(), Arc::clone(ops), ReplayEnd::Loop);
            Thread::new(name, Box::new(replay))
        })
        .collect();
    let set = ThreadSet {
        name: format!("{}:{source}", policy.prefix()),
        threads,
    };
    Ok((capture, set))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::MtrcWriter;

    fn ops(n: u64) -> Vec<TraceOp> {
        (0..n).map(|i| TraceOp::read(i as u32, i * 7)).collect()
    }

    #[test]
    fn looping_replay_is_periodic() {
        let mut r = TraceReplay::from_shared("t", ops(3).into(), ReplayEnd::Loop);
        let seen: Vec<u64> = (0..7).map(|_| r.next_op().line_addr).collect();
        assert_eq!(seen, vec![0, 7, 14, 0, 7, 14, 0]);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_stream_is_rejected() {
        let _ = TraceReplay::from_shared("t", Vec::new().into(), ReplayEnd::Loop);
    }

    #[test]
    fn each_policy_decodes_a_capture_once() {
        let header = TraceHeader {
            geometry: mithril_dram::Geometry::default(),
            cores: 2,
            base_seed: 1,
            insts_per_core: 0,
            source: "cache".into(),
        };
        let mut w = MtrcWriter::new(Vec::new(), &header).unwrap();
        for (i, op) in ops(10).into_iter().enumerate() {
            w.push(i % 2, op).unwrap();
        }
        let path = std::env::temp_dir().join(format!(
            "mithril_trace_cache_test_{}.mtrc",
            std::process::id()
        ));
        std::fs::write(&path, w.finish().unwrap()).unwrap();
        let mut loads = Vec::new();
        for policy in [DamagePolicy::Strict, DamagePolicy::Skip] {
            let first = load_capture(&path, policy).unwrap();
            let (again, set) = replay_thread_set(&path, policy).unwrap();
            assert_eq!(set.name, format!("{}:cache", policy.prefix()));
            assert!(first.report.is_clean());
            for (a, b) in first.per_core.iter().zip(&again.per_core) {
                assert!(Arc::ptr_eq(a, b), "{policy:?} decoded the capture twice");
            }
            loads.push(first);
        }
        // The policies keep separate entries over equal ops.
        assert!(!Arc::ptr_eq(&loads[0].per_core[0], &loads[1].per_core[0]));
        assert_eq!(loads[0].per_core, loads[1].per_core);
        std::fs::remove_file(&path).ok();
    }
}
