//! Capturing workloads to MTRC files.
//!
//! [`record_thread_set`] *renders* a workload offline: it pulls each
//! core's generator until it has produced enough instructions, writing as
//! it goes. This is what `trace record` uses; the recorded stream covers
//! at least `insts_per_core` instructions per core, which is exactly the
//! upper bound on what a [`System`](../mithril_sim) run with the same
//! budget can consume (every op retires at least one instruction), so a
//! replay never runs dry before the live run would have finished.

use std::io::Write;

use mithril_workloads::ThreadSet;

use crate::error::Result;
use crate::format::MtrcWriter;

/// Renders `set` to `writer`: each core's stream is captured until its
/// cumulative instruction count reaches `insts_per_core`. Returns the
/// total ops written. The caller finishes the writer.
pub fn record_thread_set<W: Write>(
    set: &mut ThreadSet,
    insts_per_core: u64,
    writer: &mut MtrcWriter<W>,
) -> Result<u64> {
    let mut total = 0u64;
    for (core, thread) in set.threads.iter_mut().enumerate() {
        let mut insts = 0u64;
        while insts < insts_per_core {
            let op = thread.next_op();
            insts += op.instructions();
            writer.push(core, op)?;
            total += 1;
        }
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{read_all, TraceHeader};
    use mithril_dram::Geometry;
    use mithril_workloads::mix_high;

    fn header(cores: usize, insts: u64) -> TraceHeader {
        TraceHeader {
            geometry: Geometry::default(),
            cores,
            base_seed: 3,
            insts_per_core: insts,
            source: "mix-high".into(),
        }
    }

    #[test]
    fn rendered_capture_covers_instruction_budget() {
        let mut set = mix_high(2, 9);
        let mut w = MtrcWriter::new(Vec::new(), &header(2, 500)).unwrap();
        let total = record_thread_set(&mut set, 500, &mut w).unwrap();
        let bytes = w.finish().unwrap();
        let (h, per_core) = read_all(&bytes[..]).unwrap();
        assert_eq!(h.cores, 2);
        assert_eq!(total, per_core.iter().map(|c| c.len() as u64).sum::<u64>());
        for ops in &per_core {
            let insts: u64 = ops.iter().map(|o| o.instructions()).sum();
            assert!(insts >= 500, "stream too short: {insts} insts");
            // Minimal overshoot: only the final op may cross the budget.
            let before_last: u64 = ops[..ops.len() - 1].iter().map(|o| o.instructions()).sum();
            assert!(before_last < 500);
        }
    }

    #[test]
    fn rendered_capture_is_deterministic() {
        let render = || {
            let mut set = mix_high(3, 42);
            let mut w = MtrcWriter::new(Vec::new(), &header(3, 300)).unwrap();
            record_thread_set(&mut set, 300, &mut w).unwrap();
            w.finish().unwrap()
        };
        assert_eq!(render(), render());
    }
}
