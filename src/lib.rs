//! # mithril-repro — a reproduction of *Mithril* (HPCA 2022)
//!
//! Umbrella crate re-exporting the whole reproduction of
//! *Mithril: Cooperative Row Hammer Protection on Commodity DRAM Leveraging
//! Managed Refresh* (Kim et al., HPCA 2022):
//!
//! * [`dram`] — DDR5-class DRAM device and timing model, the RFM interface,
//!   a Row Hammer disturbance oracle and an energy model.
//! * [`core`] — the Mithril and Mithril+ schemes: table (the one
//!   Counter-based Summary, also Graphene's), greedy selection, wrapping
//!   counters, adaptive refresh, protection bounds (Theorems 1–2),
//!   configuration solver and area model.
//! * [`baselines`] — PARA, PARFM, Graphene, RFM-Graphene, TWiCe,
//!   BlockHammer and CBT, each with its tracker (BlockHammer's counting
//!   Bloom filter and CBT's counter tree among them).
//! * [`memctrl`] — memory-controller model (FR-FCFS + BLISS, Minimalist-open
//!   paging, RAA counters / RFM issue logic, ARR, throttling).
//! * [`workloads`] — deterministic synthetic workload and attack traces.
//! * [`trace`] — trace capture/ingest/replay: the MTRC binary format,
//!   Ramulator-style text ingest, recorders and replay adapters (see the
//!   `trace` CLI in `mithril-runner`).
//! * [`sim`] — the trace-driven manycore system simulator tying it together.
//! * [`runner`] — the scenario registry and sharded parallel sweep engine
//!   (`BENCH_sweep.json`), plus the `sweep` and `trace` binaries.
//!
//! ## Quickstart
//!
//! ```
//! use mithril_repro::core::{MithrilConfig, MithrilScheme};
//! use mithril_repro::dram::{DramMitigation, Ddr5Timing};
//!
//! // Configure Mithril for a 6.25K Row Hammer threshold at RFMTH = 128.
//! let timing = Ddr5Timing::ddr5_4800();
//! let config = MithrilConfig::for_flip_threshold(6_250, 128, &timing)?;
//! let mut scheme = MithrilScheme::new(config);
//!
//! // Stream ACTs; issue an RFM every RFMTH activations.
//! for act in 0..1_000u64 {
//!     scheme.on_activate(act % 8);
//!     if (act + 1) % 128 == 0 {
//!         let refreshed = scheme.on_rfm();
//!         // `refreshed` lists the victim rows receiving a preventive refresh.
//!         let _ = refreshed;
//!     }
//! }
//! # Ok::<(), mithril_repro::core::ConfigError>(())
//! ```
//!
//! See `examples/` for full end-to-end scenarios and the `paper` binary
//! in `crates/bench` for the report regenerating every figure and table of
//! the paper.

pub use mithril as core;
pub use mithril_baselines as baselines;
pub use mithril_dram as dram;
pub use mithril_memctrl as memctrl;
pub use mithril_runner as runner;
pub use mithril_sim as sim;
pub use mithril_trace as trace;
pub use mithril_workloads as workloads;
