//! Trace-driven manycore system simulator.
//!
//! This crate substitutes the paper's McSimA+ setup (Table III): 16
//! out-of-order cores at 3.6 GHz are modelled as trace-driven front-ends
//! with bounded memory-level parallelism, sharing a 16 MB LLC over two
//! DDR5-4800 channels, each with a detailed memory controller
//! (`mithril-memctrl`) and DRAM device (`mithril-dram`).
//!
//! What the model keeps from the real machine is exactly what the paper's
//! evaluation measures: how much *extra stall time* a Row Hammer mitigation
//! injects (RFM/ARR head-of-line blocking, BlockHammer throttling) and how
//! many extra DRAM operations it performs (energy). Reported numbers are
//! normalized against the unprotected baseline, as in the paper.
//!
//! [`SystemConfig`] holds only what the paper's sweeps vary: cores,
//! geometry, FlipTH, scheme, seed, faults and QoS, plus the LLC size.
//! The rest of Table III is a constant of the module that uses it:
//! DDR5-4800 timing and blast radius 1 (`system`), the core's width,
//! clock, MLP and hit latency (`core_model`) and 64-byte lines (`llc`);
//! the controller fixes BLISS's streak and clearing interval and the
//! minimalist-open row-hit budget.
//!
//! # Example
//!
//! ```
//! use mithril_sim::{Scheme, System, SystemConfig};
//! use mithril_workloads::mix_high;
//!
//! let mut cfg = SystemConfig::table_iii();
//! cfg.cores = 2; // keep the doc test quick
//! cfg.scheme = Scheme::Mithril { rfm_th: 128, ad_th: Some(200), plus: false };
//! cfg.flip_th = 6_250;
//! let mut system = System::new(cfg, mix_high(2, 42)).expect("valid config");
//! let metrics = system.run(50_000, u64::MAX);
//! assert!(metrics.aggregate_ipc > 0.0);
//! assert_eq!(metrics.flips, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod core_model;
mod faults;
mod llc;
mod metrics;
mod system;

pub use llc::{Llc, LlcAccess, LlcConfig};
pub use metrics::{geomean, ChannelMetrics, Metrics};
pub use system::{ObsConfig, Scheme, System, SystemConfig};

// Re-exported so the runner can configure the QoS throttling layer and
// read per-core statistics without a direct memctrl dependency.
pub use mithril_memctrl::{CoreStats, QosConfig, QosPolicy, QosStats, QosThreadStats};

/// Re-exported so report writers and analysis tools can name the latency
/// histogram / per-core attribution types without a direct obs dependency.
pub use mithril_obs::{LatencyHistogram, PerCore};

// Fault campaigns: the injector (the private `faults` module) and the
// counters it fills, for the runner to configure and report.
pub use faults::{FaultConfig, FaultKind, FaultPlan, FaultyEngine};
pub use mithril_dram::FaultStats;
