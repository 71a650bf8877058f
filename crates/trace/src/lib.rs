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
//! * **MTRC v1**, the chunked binary container ([`MtrcWriter`] /
//!   [`MtrcReader`]): varint + delta encoding, per-chunk checksums, O(1)
//!   memory in both directions.
//! * **One reader, two damage policies** ([`DamagePolicy`]). A strict
//!   read ([`MtrcReader::next_chunk`], [`read_all`]) fails on any damage.
//!   On a seekable source, a skipping read
//!   ([`MtrcReader::next_chunk_skipping`]) resynchronizes past corrupt or
//!   torn chunks and counts them in a [`ResilienceReport`] instead. The
//!   loaders take the policy: [`read_all_with`] for a seekable source,
//!   [`load_capture`] for a file (decoded once per process and policy),
//!   [`replay_thread_set`] for replay, [`stats_from_reader`] for
//!   statistics. The runner's `trace:<path>` registry names read
//!   strictly, `trace+skip:<path>` names skip.
//! * **Text ingest** ([`TextReader`], [`write_text`]): line-oriented
//!   Ramulator-style (`<non_mem_insts> <R|W> <addr>`) and raw
//!   address-stream traces, with line-numbered errors.
//! * **Capture** ([`record_thread_set`]): render a workload to disk, or
//!   tee a live [`ThreadSet`](mithril_workloads::ThreadSet) so a
//!   simulation records exactly what it consumed.
//! * **Replay** ([`TraceReplay`]): the adapter implementing the
//!   `TraceSource` trait from a decoded capture.
//! * **Statistics** ([`TraceStats`]): access mix, per-channel / per-bank
//!   pressure, row-touch histogram, Space-Saving hot rows.
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
mod format;
mod recorder;
mod replay;
mod resilient;
mod stat;
mod text;

pub use error::{Result, TraceError};
pub use format::{read_all, read_header_path, MtrcReader, MtrcWriter, TraceHeader};
pub use recorder::record_thread_set;
pub use replay::{load_capture, replay_thread_set, Capture, ReplayEnd, TraceReplay};
pub use resilient::{read_all_with, DamagePolicy, ResilienceReport};
pub use stat::{stats_from_reader, HotRow, TraceStats};
pub use text::{write_text, TextFormat, TextReader};
