//! The paper's evaluation and the repository's benchmarks.
//!
//! [`paper`] regenerates every figure and table of the paper's evaluation
//! as one report with executable claims (the `paper` binary writes it to
//! `BENCH_paper.json`, which CI re-runs and diffs). The scenario
//! substance — workload registry, scheme catalogs, run helpers, standard
//! sweeps — lives in [`mithril_runner::scenarios`] and is re-exported
//! here, along with the runner's sharded engine
//! ([`mithril_runner::engine`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod paper;

pub use mithril_runner::engine::{default_threads, run_sharded, PoolConfig};
pub use mithril_runner::scenarios::{
    arr_schemes, default_rfm_th, rfm_compatible_schemes, run_one, workload, MITHRIL_SWEEP,
    NORMAL_WORKLOADS,
};
// Trace capture/replay, so external callers can swap a registry workload
// for a recorded capture (`workload("trace:<path>", ..)`) without
// importing another crate.
pub use mithril_trace::{
    record_thread_set, replay_thread_set, stats_from_reader, MtrcReader, MtrcWriter, ReplayEnd,
    TraceHeader,
};
