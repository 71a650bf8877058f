//! # Mithril — RFM-compatible deterministic Row Hammer protection
//!
//! A from-scratch implementation of **Mithril** and **Mithril+** from
//! *Mithril: Cooperative Row Hammer Protection on Commodity DRAM Leveraging
//! Managed Refresh* (Kim et al., HPCA 2022).
//!
//! Mithril is a DRAM-side mitigation that cooperates with the memory
//! controller through the DDR5/LPDDR5 *Refresh Management* (RFM) interface:
//! the controller issues a row-agnostic RFM command every `RFMTH`
//! activations per bank, and the in-DRAM engine uses the tRFM time margin to
//! preventively refresh the victims of the row it *greedily* selects — the
//! entry with the highest estimated activation count in a Counter-based
//! Summary table (paper Section IV).
//!
//! This crate provides:
//!
//! * [`MithrilTable`] — the per-bank address/count CAM pair with
//!   `MaxPtr`/`MinPtr` and **wrapping counters** (Section IV-E);
//! * [`MithrilScheme`] — the engine (greedy selection, decrement-to-min,
//!   adaptive refresh of Section V-A, the Mithril+ mode-register flag of
//!   Section V-B), implementing [`mithril_dram::DramMitigation`];
//! * [`bounds`] — Theorem 1 and Theorem 2: the provable per-tREFW increase
//!   bound `M` (and `M'` under adaptive refresh);
//! * [`MithrilConfig`] — the `(Nentry, RFMTH)` configuration solver of
//!   Section IV-D (Fig. 6) and the non-adjacent-RH adjustment (Section V-C);
//! * [`area`] — the CAM bit-width and area model behind Table IV.
//!
//! # Example
//!
//! ```
//! use mithril::{MithrilConfig, MithrilScheme};
//! use mithril_dram::{Ddr5Timing, DramMitigation};
//!
//! let timing = Ddr5Timing::ddr5_4800();
//! let config = MithrilConfig::for_flip_threshold(6_250, 128, &timing)?;
//! // The solved table comfortably protects FlipTH = 6.25K:
//! assert!(config.bound(&timing) < 6_250.0 / 2.0);
//!
//! let mut scheme = MithrilScheme::new(config);
//! for i in 0..128u64 {
//!     scheme.on_activate(100 + i % 4); // hammer four rows
//! }
//! let outcome = scheme.on_rfm();
//! // The greedy selection refreshed the victims of one of the hot rows.
//! assert_eq!(outcome.refreshed_victims.len(), 2);
//! # Ok::<(), mithril::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod area;
pub mod bounds;
mod config;
mod scheme;
mod streamsummary;
mod table;

pub use config::{ConfigError, MithrilConfig};
pub use scheme::MithrilScheme;
pub use table::{Counter, MithrilTable, NaiveTable, Selection, INVALID_ROW};
