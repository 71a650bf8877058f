//! DDR5 memory-controller model with the RFM issue logic of the paper.
//!
//! The controller implements the system side of the paper's Table III setup:
//!
//! * per-bank request queues with **FR-FCFS** scheduling under the
//!   **BLISS** blacklisting policy (Subramanian et al.), the scheduler the
//!   paper simulates;
//! * the **Minimalist-open** page policy (Kaseridis et al.): a row stays
//!   open only for a handful of row hits, then closes;
//! * rank-level auto-refresh every tREFI;
//! * the **RFM issue flow** of paper Fig. 1(b): a Rolling Accumulated ACT
//!   (RAA) counter per bank; when it reaches `RFMTH` the controller issues
//!   an RFM to that bank and resets the counter — optionally after polling
//!   the Mithril+ mode-register flag (MRR) and eliding the RFM when clear;
//! * an **ARR path** and a **throttling hook** so MC-side mitigations
//!   (PARA, Graphene, TWiCe, CBT, BlockHammer) can be plugged in via
//!   [`McMitigation`];
//! * a **multi-tenant QoS layer** ([`QosPolicy`], BreakHammer-style):
//!   per-thread suspect scores fed by tracker-pressure attribution, with
//!   a token-bucket rate clamp on suspects — see the [`qos`]-module docs
//!   and ARCHITECTURE.md ("Multi-tenant QoS & throttling").
//!
//! # Example
//!
//! ```
//! use mithril_dram::{Ddr5Timing, DramDevice, Geometry, NoMitigation};
//! use mithril_memctrl::{
//!     AddressMapping, McConfig, MemRequest, MemoryController, NoMcMitigation, RfmMode,
//! };
//!
//! let geometry = Geometry::default();
//! let device = DramDevice::new(geometry, Ddr5Timing::ddr5_4800(), 10_000, 1, |_| {
//!     Box::new(NoMitigation)
//! });
//! let mut mc = MemoryController::new(device, McConfig::default(), Box::new(NoMcMitigation));
//!
//! let mapping = AddressMapping::new(geometry);
//! mc.enqueue(MemRequest::read(1, mapping.map_line(0x4000), 0, 0));
//! let mut done = Vec::new();
//! mc.advance_until_into(1_000_000, &mut done); // 1 µs
//! assert_eq!(done.len(), 1);
//! assert_eq!(done[0].request_id, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bliss;
mod controller;
mod mapping;
mod mitigation;
pub mod qos;
mod request;

pub use bliss::Bliss;
pub use controller::{
    CommandKind, CommandRecord, Completion, CoreStats, McConfig, McStats, MemoryController,
    RfmMode, SchedulerKind,
};
pub use mapping::{AddressMapping, MappedAddr};
pub use mitigation::{McAction, McMitigation, NoMcMitigation};
pub use qos::{QosConfig, QosPolicy, QosStats, QosThreadStats};
pub use request::MemRequest;
