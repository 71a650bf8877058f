//! Baseline Row Hammer mitigation schemes from the Mithril evaluation.
//!
//! Every scheme the paper compares against (Table I and Section VI),
//! implemented from its description and cited equations:
//!
//! | Scheme | Guarantee | Remedy | Location | Tracker |
//! |---|---|---|---|---|
//! | [`Para`] | probabilistic | ARR | MC | sampling |
//! | [`Parfm`] | probabilistic | RFM | DRAM | reservoir sampling |
//! | [`Graphene`] | deterministic | ARR | MC | Counter-based Summary |
//! | [`RfmGraphene`] | (broken on purpose) | RFM | DRAM | CbS + threshold buffer |
//! | [`TwiCe`] | deterministic | ARR | DRAM buffer chip | Lossy Counting |
//! | [`BlockHammer`] | deterministic | throttling | MC | dual counting Bloom filters |
//! | [`Cbt`] | deterministic | ARR | MC | grouped counter tree |
//!
//! [`RfmGraphene`] is the strawman of paper Fig. 2: a prior ARR-style
//! threshold scheme naively ported to the RFM interface, kept here to
//! reproduce its vulnerability to refresh concentration.
//!
//! MC-side schemes implement [`mithril_memctrl::McMitigation`]; DRAM-side
//! schemes implement [`mithril_dram::DramMitigation`]. Analytical models
//! (PARFM failure probability of Appendix C, per-scheme table sizes of
//! Table IV) live next to each scheme.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod blockhammer;
mod cbt;
mod graphene;
mod para;
mod parfm;
mod trackers;
mod twice;

pub use blockhammer::{BlockHammer, BlockHammerConfig};
pub use cbt::{Cbt, CbtConfig};
pub use graphene::{Graphene, GrapheneConfig, RfmGraphene};
pub use para::{Para, ParaConfig};
pub use parfm::{parfm_analysis, Parfm};
pub use twice::{TwiCe, TwiCeConfig};

/// Appendix C's provisioning of the probabilistic schemes (PARFM's
/// `RFMTH`, PARA's refresh probability): the system failure probability
/// per tREFW window they are sized to stay below ...
pub const FAILURE_TARGET: f64 = 1e-15;
/// ... over this many simultaneously attackable banks.
pub const ATTACKABLE_BANKS: u64 = 22;

/// The FlipTH sweep used throughout the paper's evaluation (Section VI).
pub const FLIP_TH_SWEEP: [u64; 6] = [50_000, 25_000, 12_500, 6_250, 3_125, 1_500];
