//! Streaming trace capture, ingest and replay for the Mithril system
//! simulator.
//!
//! Every scenario used to be synthesized in-process by `mithril-workloads`
//! generators; this crate opens the second door the trace-driven
//! evaluation literature (BlockHammer, BreakHammer) relies on: capture an
//! access stream once — from a registry workload, a live simulation, or an
//! external text trace — and replay it through any protection scheme and
//! sweep configuration, bit-for-bit reproducibly.
//!
//! * [`format`](mod@format) — the **MTRC v1** chunked binary container
//!   ([`MtrcWriter`] / [`MtrcReader`]): varint + delta encoding,
//!   per-chunk checksums, O(1) memory in both directions.
//! * [`text`] — line-oriented ingest of Ramulator-style
//!   (`<non_mem_insts> <R|W> <addr>`) and raw address-stream traces, with
//!   line-numbered errors.
//! * [`recorder`] — capture: render a workload to disk, or tee a live
//!   [`ThreadSet`](mithril_workloads::ThreadSet) so a simulation records
//!   exactly what it consumed.
//! * [`replay`] — the [`TraceReplay`] adapter implementing the
//!   `TraceSource` trait from a capture, and
//!   [`replay_thread_set`] for whole-file multi-core loads (what the
//!   runner's `trace:<path>` registry names use).
//! * [`resilient`] — [`ResilientMtrcReader`], a skip-and-tally variant of
//!   the strict reader: corrupt or torn chunks are resynchronized past and
//!   counted in a [`ResilienceReport`] instead of aborting the read (what
//!   the runner's `trace+skip:<path>` registry names use).
//! * [`stat`] — streaming capture statistics (access mix, per-channel /
//!   per-bank pressure, row-touch histogram, Space-Saving hot rows).
//!
//! The `trace` CLI in `mithril-runner` fronts all of this:
//!
//! ```text
//! cargo run --release -p mithril-runner --bin trace -- record \
//!     --workload mix-high --cores 4 --insts 20000 --out mix.mtrc
//! cargo run --release -p mithril-runner --bin trace -- stat   --trace mix.mtrc
//! cargo run --release -p mithril-runner --bin trace -- replay --trace mix.mtrc --scheme mithril
//! ```
//!
//! # Example
//!
//! ```
//! use mithril_dram::Geometry;
//! use mithril_trace::{read_all, MtrcWriter, TraceHeader};
//! use mithril_workloads::TraceOp;
//!
//! let header = TraceHeader {
//!     geometry: Geometry::default(),
//!     cores: 1,
//!     base_seed: 1,
//!     insts_per_core: 0,
//!     source: "doc".into(),
//! };
//! let mut w = MtrcWriter::new(Vec::new(), &header).unwrap();
//! for i in 0..100 {
//!     w.push(0, TraceOp::read(3, 1000 + i)).unwrap();
//! }
//! let bytes = w.finish().unwrap();
//! let (h, per_core) = read_all(&bytes[..]).unwrap();
//! assert_eq!(h, header);
//! assert_eq!(per_core[0].len(), 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod format;
pub mod recorder;
pub mod replay;
pub mod resilient;
pub mod stat;
pub mod text;

pub use error::{Result, TraceError};
pub use format::{
    read_all, read_all_path, read_header_path, MtrcReader, MtrcWriter, TraceHeader,
    DEFAULT_CHUNK_OPS, MAGIC, VERSION,
};
pub use recorder::{record_thread_set, tee_thread_set, SharedWriter, TraceRecorder};
pub use replay::{replay_thread_set, replay_thread_set_resilient, ReplayEnd, TraceReplay};
pub use resilient::{
    read_all_resilient, read_all_resilient_path, ResilienceReport, ResilientMtrcReader,
};
pub use stat::{
    stats_from_reader, stats_from_resilient_reader, HotRow, StatsCollector, TraceStats,
};
pub use text::{parse_line, read_text, write_text, TextFormat, TextReader};
