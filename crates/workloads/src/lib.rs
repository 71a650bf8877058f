//! Deterministic synthetic workload and attack-trace generators.
//!
//! The paper evaluates with SPEC CPU2017 SimPoint traces (mix-high and
//! mix-blend), SPLASH-2 FFT/RADIX, GAP PageRank, plus Row Hammer attack
//! patterns and a BlockHammer performance-adversarial pattern
//! (Section VI-A). Those traces are not redistributable, so this crate
//! synthesizes generators with the access properties the paper's mechanisms
//! are sensitive to:
//!
//! * **memory intensity** (instructions per memory access),
//! * **row locality** (streaming sweeps keep a row open; paper Fig. 8's
//!   large-object sweep of `lbm` is modelled by [`StreamSweep`]),
//! * **footprint and reuse** (cache-resident vs DRAM-resident),
//! * **attack structure** (double-sided pairs, 32-row multi-sided
//!   TRRespass-style patterns, CBF-pollution for the BlockHammer
//!   adversarial experiment).
//!
//! Every generator is an infinite, seeded iterator of [`TraceOp`]s — runs
//! are bit-for-bit reproducible.
//!
//! # Example
//!
//! ```
//! use mithril_workloads::{StreamSweep, TraceOp, TraceSource};
//!
//! let mut sweep = StreamSweep::new(4, 1 << 20, 7);
//! let ops: Vec<TraceOp> = (0..1000).map(|_| sweep.next_op()).collect();
//! // Sequential sweeps revisit consecutive lines: high spatial locality.
//! assert!(ops.windows(2).filter(|w| w[1].line_addr == w[0].line_addr + 1).count() > 500);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod attacks;
mod kernels;
mod mixes;
mod op;

pub use attacks::ChannelPinned;
pub use kernels::StreamSweep;
pub use mixes::{
    attack_mix, bh_cover_attack_mix, channel_interference_mix, mix_blend, mix_high, multithreaded,
    noisy_neighbor_mix, Thread, ThreadSet,
};
pub use op::TraceOp;

/// Anything that produces an infinite instruction/memory trace.
pub trait TraceSource {
    /// The next trace operation. Generators never terminate.
    fn next_op(&mut self) -> TraceOp;

    /// A short name for reporting.
    fn name(&self) -> &str;
}
