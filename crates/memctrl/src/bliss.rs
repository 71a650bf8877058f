//! The BLISS memory scheduler (Subramanian et al., the paper's Table III
//! scheduling policy).
//!
//! BLISS ("Blacklisting Memory Scheduler") separates applications into two
//! priority classes instead of ranking them individually: a thread that is
//! served [`STREAK_THRESHOLD`] *consecutive* requests is blacklisted for
//! the rest of the clearing interval, deprioritizing streak-heavy
//! (interference-prone) applications. Within a class, scheduling stays
//! FR-FCFS.

use mithril_dram::TimePs;

/// Consecutive services that trigger blacklisting (paper value: 4).
const STREAK_THRESHOLD: u32 = 4;

/// Blacklist clearing interval (BLISS uses 10 000 CPU cycles; ~2.8 µs at
/// 3.6 GHz).
const CLEARING_INTERVAL: TimePs = 2_800_000;

/// Blacklisting state. The blacklist grows to the highest thread it has
/// blacklisted, so any number of threads is served.
///
/// # Example
///
/// ```
/// use mithril_memctrl::Bliss;
///
/// let mut b = Bliss::default();
/// for _ in 0..4 {
///     b.on_request_served(0, 100);
/// }
/// assert!(b.is_blacklisted(0));
/// assert!(!b.is_blacklisted(1));
/// ```
#[derive(Debug, Clone)]
pub struct Bliss {
    blacklisted: Vec<bool>,
    last_thread: Option<usize>,
    streak: u32,
    next_clear: TimePs,
}

impl Default for Bliss {
    /// An empty blacklist whose first clearing is one interval away.
    fn default() -> Self {
        Self {
            blacklisted: Vec::new(),
            last_thread: None,
            streak: 0,
            next_clear: CLEARING_INTERVAL,
        }
    }
}

impl Bliss {
    /// Records that a request of `thread` was serviced at `now`.
    ///
    /// Returns `true` if the blacklist set changed (a thread was newly
    /// blacklisted, or the clearing interval elapsed and dropped entries)
    /// — the event-driven scheduler uses this to invalidate cached
    /// per-bank candidates only when priorities actually moved.
    pub fn on_request_served(&mut self, thread: usize, now: TimePs) -> bool {
        let mut changed = self.maybe_clear(now);
        if self.last_thread == Some(thread) {
            self.streak += 1;
        } else {
            self.last_thread = Some(thread);
            self.streak = 1;
        }
        if self.streak >= STREAK_THRESHOLD {
            if thread >= self.blacklisted.len() {
                self.blacklisted.resize(thread + 1, false);
            }
            let b = &mut self.blacklisted[thread];
            if !*b {
                *b = true;
                changed = true;
            }
        }
        changed
    }

    /// True if `thread` is currently blacklisted (lower priority).
    pub fn is_blacklisted(&self, thread: usize) -> bool {
        self.blacklisted.get(thread).copied().unwrap_or(false)
    }

    /// Advances the clearing clock without a service event. Returns `true`
    /// if the clearing interval elapsed and dropped blacklist entries.
    pub fn tick(&mut self, now: TimePs) -> bool {
        self.maybe_clear(now)
    }

    fn maybe_clear(&mut self, now: TimePs) -> bool {
        let mut changed = false;
        while now >= self.next_clear {
            if !changed && self.blacklisted.iter().any(|&b| b) {
                changed = true;
            }
            self.blacklisted.fill(false);
            self.next_clear += CLEARING_INTERVAL;
        }
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bliss() -> Bliss {
        Bliss::default()
    }

    #[test]
    fn streak_of_four_blacklists() {
        let mut b = bliss();
        for _ in 0..3 {
            b.on_request_served(1, 0);
        }
        assert!(!b.is_blacklisted(1));
        b.on_request_served(1, 0);
        assert!(b.is_blacklisted(1));
    }

    #[test]
    fn interleaved_service_never_blacklists() {
        let mut b = bliss();
        for i in 0..100 {
            b.on_request_served(i % 2, i as TimePs);
        }
        assert!(!b.is_blacklisted(0));
        assert!(!b.is_blacklisted(1));
    }

    #[test]
    fn clearing_interval_resets_blacklist() {
        let mut b = bliss();
        for _ in 0..4 {
            b.on_request_served(2, 0);
        }
        assert!(b.is_blacklisted(2));
        b.tick(CLEARING_INTERVAL);
        assert!(!b.is_blacklisted(2));
    }

    #[test]
    fn streak_resets_on_thread_switch() {
        let mut b = bliss();
        b.on_request_served(0, 0);
        b.on_request_served(0, 0);
        b.on_request_served(0, 0);
        b.on_request_served(1, 0); // breaks the streak
        b.on_request_served(0, 0);
        assert!(!b.is_blacklisted(0));
    }

    #[test]
    fn out_of_range_thread_is_not_blacklisted() {
        let b = bliss();
        assert!(!b.is_blacklisted(99));
    }

    /// Threads beyond the paper's 16 cores are blacklisted and cleared
    /// like any other.
    #[test]
    fn thread_20_is_blacklisted_then_cleared() {
        let mut b = bliss();
        for _ in 0..3 {
            assert!(!b.on_request_served(20, 0));
        }
        assert!(b.on_request_served(20, 0), "the fourth service blacklists");
        assert!(b.is_blacklisted(20));
        assert!(!b.is_blacklisted(19));
        assert!(b.tick(CLEARING_INTERVAL), "the clearing drops thread 20");
        assert!(!b.is_blacklisted(20));
    }
}
