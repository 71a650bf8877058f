//! End-to-end and per-layer benchmark of the Mithril simulator.
//!
//! Four workloads, each loading a different layer of the simulator
//! (see `README.md` for why each exists and which metric each layer
//! should move). Every input is generated from the workload seed; the
//! simulator is driven only through its crates' public APIs.

pub mod common;
pub mod harness;
pub mod layers;
pub mod probe;
pub mod sweep;
pub mod system;

use common::Report;
use probe::Spans;

/// The workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = [
    "benign-mithril-plus",
    "noisy-neighbor-qos",
    "sweep-catalog",
    "harness-adversarial",
];

/// One invocation.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Seconds of timed units to run.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Shrunken inputs, for the benchmark's own tests.
    pub tiny: bool,
}

/// Runs the workload and returns its report.
///
/// # Errors
///
/// An unknown workload, or a set-up step that failed outright.
pub fn run(o: &Options, spans: &Spans) -> Result<Report, String> {
    let scale = |full: u64, tiny: u64| if o.tiny { tiny } else { full };
    let (seed, secs) = (o.seed, o.seconds);
    match o.workload.as_str() {
        "benign-mithril-plus" => {
            let b = system::Benign {
                seed,
                insts: scale(4_000_000, 20_000),
            };
            if o.trace {
                system::traced(&b, secs, spans)
            } else {
                system::end_to_end(&b, secs)
            }
        }
        "noisy-neighbor-qos" => {
            let b = system::Noisy {
                seed,
                insts: scale(1_000_000, 20_000),
            };
            if o.trace {
                system::traced(&b, secs, spans)
            } else {
                system::end_to_end(&b, secs)
            }
        }
        "sweep-catalog" => {
            let s = sweep::Sweep {
                seed,
                insts: scale(200_000, 3_000),
            };
            if o.trace {
                sweep::traced(&s, secs, spans)
            } else {
                sweep::end_to_end(&s, secs)
            }
        }
        "harness-adversarial" => {
            let h = harness::Harness {
                seed,
                pairs: scale(8, 1) as usize,
            };
            if o.trace {
                harness::traced(&h, secs, spans)
            } else {
                harness::end_to_end(&h, secs)
            }
        }
        other => Err(format!(
            "unknown workload {other}; expected one of {}",
            WORKLOADS.join(", ")
        )),
    }
}
