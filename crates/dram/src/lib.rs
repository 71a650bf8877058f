//! DDR5-class DRAM device model with the Refresh Management (RFM) interface.
//!
//! This crate is the simulation substrate under the Mithril reproduction:
//! a timing-accurate bank/rank state machine, per-bank auto-refresh in row
//! groups, the DDR5 `RFM` command with its `tRFM` time margin (paper
//! Section II-D and Fig. 1), an exact Row Hammer disturbance **oracle** used
//! to validate protection claims empirically, and a dynamic-energy model.
//!
//! The crate has two entry points:
//!
//! * [`DramDevice`] — a full multi-rank device driven by a memory
//!   controller (see the `mithril-memctrl` crate), used for the
//!   performance/energy experiments.
//! * [`AttackHarness`] — a single-bank command-level harness that enforces
//!   the tREFW activation budget, used for the safety experiments (a whole
//!   refresh window is only ~650K ACTs per bank, so worst cases are cheap
//!   to explore exhaustively).
//!
//! # Example
//!
//! ```
//! use mithril_dram::{AttackHarness, Ddr5Timing, NoMitigation};
//!
//! // An unprotected bank hammered on one row for a full tREFW window
//! // accumulates far more than any realistic FlipTH on its neighbours.
//! let timing = Ddr5Timing::ddr5_4800();
//! let mut h = AttackHarness::new(timing, Box::new(NoMitigation), 64, u64::MAX);
//! while h.try_activate(1000) {}
//! assert!(h.oracle().max_disturbance() > 100_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bank;
mod device;
mod energy;
mod harness;
mod mitigation;
mod oracle;
mod rank;
mod rows;
mod timing;
mod types;

pub use bank::{Bank, BankState};
pub use device::DramDevice;
pub use energy::{EnergyCounters, EnergyModel};
pub use harness::AttackHarness;
pub use mitigation::{DramMitigation, FaultStats, FaultSurface, NoMitigation, RfmOutcome};
pub use oracle::{victims, FlipEvent, RowHammerOracle};
pub use rank::RankTiming;
pub use timing::{Ddr5Timing, PS_PER_MS, PS_PER_NS, PS_PER_US};
pub use types::{BankId, ChannelId, Geometry, RankId, RowId, TimePs};
