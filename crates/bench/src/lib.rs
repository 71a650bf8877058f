//! The paper's evaluation and the repository's benchmarks.
//!
//! [`paper`] regenerates every figure and table of the paper's evaluation
//! as one report with executable claims (the `paper` binary writes it to
//! `BENCH_paper.json`, which CI re-runs and diffs). The scenario
//! substance — workload registry, scheme catalogs, standard sweeps and
//! the sharded engine — lives in [`mithril_runner`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod paper;
