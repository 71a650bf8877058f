//! The trace-driven core front-end.
//!
//! Each core replays its workload trace: batches of non-memory
//! instructions retire at the pipeline width, memory operations look up the
//! LLC, and misses occupy one of [`MLP`] miss slots (the memory-level
//! parallelism an out-of-order window sustains). A core with all slots full
//! stalls until a fill returns — the mechanism through which RFM/ARR/
//! throttling-induced DRAM stalls become IPC loss.

use mithril_dram::TimePs;

// Core micro-architecture (paper Table III: 3.6 GHz 4-way OOO).

/// Retire width (instructions per cycle).
const WIDTH: u32 = 4;
/// Core clock period in picoseconds (278 ps ≈ 3.6 GHz).
const PERIOD_PS: TimePs = 278;
/// Outstanding misses the core tolerates before stalling.
const MLP: usize = 8;
/// Exposed LLC hit latency per access, in picoseconds (after OOO
/// overlap).
const LLC_HIT_PS: TimePs = 3_000;

/// Execution state of one core.
#[derive(Debug)]
pub(crate) struct CoreState {
    /// Core-local time.
    pub clock: TimePs,
    /// Instructions retired.
    pub insts: u64,
    /// Demand misses in flight.
    pub outstanding: usize,
    /// True when all miss slots are full.
    pub blocked: bool,
    /// Instruction budget; the core idles once reached.
    pub budget: u64,
}

impl CoreState {
    /// A fresh core with an instruction budget.
    pub fn new(budget: u64) -> Self {
        Self {
            clock: 0,
            insts: 0,
            outstanding: 0,
            blocked: false,
            budget,
        }
    }

    /// True if the core retired its budget.
    pub fn done(&self) -> bool {
        self.insts >= self.budget
    }

    /// Advances local time for a batch of non-memory instructions plus the
    /// issue of one memory access.
    pub(crate) fn retire_batch(&mut self, non_mem_insts: u32) {
        let cycles = (non_mem_insts / WIDTH).max(1) as TimePs;
        self.clock += cycles * PERIOD_PS;
        self.insts += non_mem_insts as u64 + 1;
    }

    /// Accounts an LLC hit.
    pub(crate) fn account_hit(&mut self) {
        self.clock += LLC_HIT_PS;
    }

    /// Registers a demand miss; returns `true` if the core is now blocked.
    pub(crate) fn register_miss(&mut self) -> bool {
        self.outstanding += 1;
        self.blocked = self.outstanding >= MLP;
        self.blocked
    }

    /// Delivers a fill completion at absolute time `at`.
    pub(crate) fn deliver(&mut self, at: TimePs) {
        debug_assert!(self.outstanding > 0, "completion without outstanding miss");
        self.outstanding -= 1;
        if self.blocked {
            self.blocked = false;
            self.clock = self.clock.max(at);
        }
    }

    /// Instructions per cycle retired so far.
    pub fn ipc(&self) -> f64 {
        if self.clock == 0 {
            return 0.0;
        }
        let cycles = self.clock as f64 / PERIOD_PS as f64;
        self.insts as f64 / cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn core() -> CoreState {
        CoreState::new(u64::MAX)
    }

    #[test]
    fn retire_advances_clock_by_width() {
        let mut c = core();
        c.retire_batch(8); // 8 insts / width 4 = 2 cycles
        assert_eq!(c.clock, 2 * 278);
        assert_eq!(c.insts, 9);
    }

    #[test]
    fn small_batches_cost_at_least_one_cycle() {
        let mut c = core();
        c.retire_batch(0);
        assert_eq!(c.clock, 278);
    }

    #[test]
    fn blocks_at_mlp_limit() {
        let mut c = core();
        for i in 0..7 {
            assert!(!c.register_miss(), "blocked too early at {i}");
        }
        assert!(c.register_miss());
        assert!(c.blocked);
    }

    #[test]
    fn deliver_unblocks_and_advances_time() {
        let mut c = core();
        for _ in 0..8 {
            c.register_miss();
        }
        let before = c.clock;
        c.deliver(before + 100_000);
        assert!(!c.blocked);
        assert_eq!(c.clock, before + 100_000);
        assert_eq!(c.outstanding, 7);
    }

    #[test]
    fn deliver_when_not_blocked_keeps_clock() {
        let mut c = core();
        c.register_miss();
        c.deliver(999_999);
        assert_eq!(c.clock, 0, "unblocked core does not wait for data");
    }

    #[test]
    fn ipc_counts_retired_over_cycles() {
        let mut c = core();
        c.retire_batch(4); // 1 cycle, 5 insts
        assert!((c.ipc() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn budget_marks_done() {
        let mut c = CoreState::new(10);
        assert!(!c.done());
        c.retire_batch(20);
        assert!(c.done());
    }
}
