//! Multi-tenant QoS throttling (BreakHammer-style suspect scoring).
//!
//! Mithril's managed-refresh RFMs are a shared, contended resource: one
//! hammering tenant can burn every bank's mitigation budget and inflate
//! co-tenants' read latency. BreakHammer's answer (see PAPERS.md) is to
//! score threads by their share of *tracker pressure* — how often their
//! activations force the mitigation machinery to act — and throttle the
//! suspects, not everyone.
//!
//! This module is the controller-side implementation of that idea:
//!
//! * Every RFM arming (an ACT crossing the RAA threshold) and every
//!   MC-mitigation trigger (a queued ARR) adds [`PRESSURE_SCALE`] to the
//!   issuing thread's **window pressure**. QoS-throttled ACTs themselves
//!   add nothing — throttling a thread must not manufacture the evidence
//!   that keeps it throttled.
//! * On a fixed window cadence (`window_ps`) each thread's **suspect
//!   score** decays geometrically and absorbs the window's pressure
//!   (`score = score/2 + pressure`), so the steady-state score of a
//!   thread causing `p` pressure per window converges to `2p`.
//! * A thread is **suspect** for the next window iff its *cumulative*
//!   pressure exceeds `share_pct` percent of the run's total across
//!   threads *and* its decayed score clears an absolute noise floor
//!   (`min_score`). The cumulative share identifies *who* is responsible
//!   (a victim's incidental trigger burst can never outweigh a sustained
//!   hammer), while the decayed score limits *when* throttling applies
//!   (a thread that stops hammering is released within a few windows).
//! * Suspects are rate-clamped by a per-thread **token bucket**: a
//!   suspect spends one token per ACT and gets `tokens_per_window` fresh
//!   tokens at each window rotation; once dry, further ACTs of that
//!   thread release only at the **window boundary** (an absolute simulated time, so both scheduler
//!   cores compute the identical release — see the decision-identity
//!   notes in ARCHITECTURE.md).
//!
//! All state is integer-only and advances only on executed commands at
//! simulated times, so QoS preserves the workspace determinism contract:
//! reports are byte-identical at any worker-thread count, and with
//! [`QosPolicy::Off`] the controller is entry-by-entry identical to a
//! build without this module.

use mithril_dram::TimePs;

/// Score units added per pressure event (RFM arming / mitigation
/// trigger). Scores are kept in these fixed-point units so the noise
/// floor can sit below one event per window: with the default
/// `min_score` of 8, a thread needs a steady ≥ 0.25 triggers per window
/// to stay suspect.
pub const PRESSURE_SCALE: u64 = 16;

/// Tuning of the suspect scorer and throttle (all fields are part of the
/// deterministic simulation state; `Copy` so `SystemConfig` stays
/// `Copy`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QosConfig {
    /// Score window: decay, suspect re-election and token refill cadence
    /// (picoseconds of simulated time).
    pub window_ps: TimePs,
    /// A thread is suspect only when its cumulative pressure exceeds
    /// this percentage of the total across threads.
    pub share_pct: u64,
    /// ...and only when its *decayed* score is at least this absolute
    /// floor (in [`PRESSURE_SCALE`] units), so idle systems never elect
    /// a suspect and reformed hammers are released within a few windows.
    pub min_score: u64,
    /// ACT budget a suspect thread receives per window.
    pub tokens_per_window: u64,
}

impl Default for QosConfig {
    /// Defaults sized for the Table III system: 2 µs windows (a handful
    /// of RFM cadences), 60% trigger share, a quarter-trigger-per-window
    /// noise floor, and 8 ACTs per window for suspects (roughly a 5x
    /// clamp against an unthrottled single-bank hammer).
    fn default() -> Self {
        Self {
            window_ps: 2_000_000,
            share_pct: 60,
            min_score: PRESSURE_SCALE / 2,
            tokens_per_window: 8,
        }
    }
}

/// Whether (and how) the controller runs the QoS layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QosPolicy {
    /// No QoS: the controller is entry-by-entry identical to a build
    /// without the subsystem (the `BENCH_sweep.json` byte-identity
    /// contract).
    #[default]
    Off,
    /// Suspect scoring + throttling with the given tuning.
    Throttle(QosConfig),
}

/// One thread's share of the QoS bookkeeping.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct ThreadQos {
    /// Decayed suspect score ([`PRESSURE_SCALE`] units).
    score: u64,
    /// Cumulative pressure over the whole run (never decays; the
    /// responsibility signal the suspect share test runs against).
    pressure: u64,
    /// Pressure accumulated in the current window.
    window_pressure: u64,
    /// Remaining ACT tokens (meaningful only while suspect).
    tokens: u64,
    /// Elected suspect at the last window rotation.
    suspect: bool,
    /// Windows this thread spent as a suspect.
    suspect_windows: u64,
    /// ACTs of this thread deferred by the token bucket.
    throttled_acts: u64,
}

/// Live QoS state owned by one memory controller (one channel).
#[derive(Debug, Clone)]
pub(crate) struct QosState {
    cfg: QosConfig,
    /// End of the current score window (absolute simulated time).
    window_end: TimePs,
    threads: Vec<ThreadQos>,
    windows: u64,
}

impl QosState {
    /// Builds the state for a policy; `Off` needs none.
    pub(crate) fn new(policy: QosPolicy) -> Option<Self> {
        match policy {
            QosPolicy::Off => None,
            QosPolicy::Throttle(cfg) => {
                assert!(cfg.window_ps > 0, "QoS window must be non-zero");
                Some(Self {
                    cfg,
                    window_end: cfg.window_ps,
                    threads: Vec::new(),
                    windows: 0,
                })
            }
        }
    }

    fn slot(&mut self, thread: usize) -> &mut ThreadQos {
        if thread >= self.threads.len() {
            self.threads.resize(thread + 1, ThreadQos::default());
        }
        &mut self.threads[thread]
    }

    /// Rotates score windows until `now` is inside the current one.
    /// Called once per executed command, before the command's effects,
    /// so both scheduler cores rotate at identical points of the
    /// (identical) command stream. Returns whether a rotation happened:
    /// every thread's release may have changed.
    pub(crate) fn tick(&mut self, now: TimePs) -> bool {
        let rotated = now >= self.window_end;
        while now >= self.window_end {
            self.rotate();
            self.window_end += self.cfg.window_ps;
        }
        rotated
    }

    /// One window rotation: decay + absorb pressure, re-elect suspects,
    /// refill token buckets.
    fn rotate(&mut self) {
        self.windows += 1;
        let mut total = 0u64;
        for t in &mut self.threads {
            t.score = t.score / 2 + t.window_pressure;
            t.pressure += t.window_pressure;
            t.window_pressure = 0;
            total += t.pressure;
        }
        for t in &mut self.threads {
            t.suspect =
                t.score >= self.cfg.min_score && t.pressure * 100 > total * self.cfg.share_pct;
            if t.suspect {
                t.suspect_windows += 1;
                t.tokens = self.cfg.tokens_per_window;
            }
        }
    }

    /// Earliest time `thread` may activate: the next window boundary
    /// when it is a dry suspect, otherwise unconstrained (0). Absolute,
    /// not `now`-relative, so every recompute within a step yields the
    /// same release.
    pub(crate) fn activate_allowed_at(&self, thread: usize) -> TimePs {
        match self.threads.get(thread) {
            Some(t) if t.suspect && t.tokens == 0 => self.window_end,
            _ => 0,
        }
    }

    /// Charges an executed ACT: suspects spend a token; a deferred ACT
    /// (qos_throttled, as computed at selection) is tallied. Returns
    /// whether the thread's release changed: a suspect spent its last
    /// token and now waits for the window boundary.
    pub(crate) fn on_act(&mut self, thread: usize, qos_throttled: bool) -> bool {
        let t = self.slot(thread);
        if qos_throttled {
            t.throttled_acts += 1;
        }
        if t.suspect && t.tokens > 0 {
            t.tokens -= 1;
            t.tokens == 0
        } else {
            false
        }
    }

    /// Charges one pressure event (RFM arming or mitigation trigger) to
    /// the issuing thread's current window.
    pub(crate) fn on_pressure(&mut self, thread: usize) {
        self.slot(thread).window_pressure += PRESSURE_SCALE;
    }

    /// Snapshot for reporting.
    pub(crate) fn stats(&self) -> QosStats {
        QosStats {
            windows: self.windows,
            throttled_acts: self.threads.iter().map(|t| t.throttled_acts).sum(),
            per_thread: self
                .threads
                .iter()
                .map(|t| QosThreadStats {
                    suspect_windows: t.suspect_windows,
                    throttled_acts: t.throttled_acts,
                    score: t.score,
                    pressure: t.pressure,
                })
                .collect(),
        }
    }
}

/// One thread's QoS outcome over a run (reported in the `qos` section).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QosThreadStats {
    /// Windows the thread spent elected suspect.
    pub suspect_windows: u64,
    /// ACTs deferred by the token bucket.
    pub throttled_acts: u64,
    /// Final decayed suspect score ([`PRESSURE_SCALE`] units).
    pub score: u64,
    /// Cumulative pressure attributed over the run ([`PRESSURE_SCALE`]
    /// units) — the throttle-attribution signal.
    pub pressure: u64,
}

impl QosThreadStats {
    /// Additive fold for cross-channel roll-up (associative and
    /// commutative, like every other metrics merge).
    pub fn merge(&mut self, other: &QosThreadStats) {
        self.suspect_windows += other.suspect_windows;
        self.throttled_acts += other.throttled_acts;
        self.score += other.score;
        self.pressure += other.pressure;
    }
}

/// QoS summary of one run (or one channel), carried alongside the
/// metrics. Present only when a [`QosPolicy`] other than `Off` ran, so
/// QoS-off reports stay byte-identical.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QosStats {
    /// Score windows rotated (summed across channels on roll-up).
    pub windows: u64,
    /// Total ACTs deferred by the token bucket.
    pub throttled_acts: u64,
    /// Per-thread outcomes, indexed by thread id.
    pub per_thread: Vec<QosThreadStats>,
}

impl QosStats {
    /// Folds another channel's QoS outcome into `self` (index-wise for
    /// the per-thread table, additive otherwise).
    pub fn merge(&mut self, other: &QosStats) {
        self.windows += other.windows;
        self.throttled_acts += other.throttled_acts;
        if other.per_thread.len() > self.per_thread.len() {
            self.per_thread
                .resize(other.per_thread.len(), QosThreadStats::default());
        }
        for (a, b) in self.per_thread.iter_mut().zip(other.per_thread.iter()) {
            a.merge(b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(cfg: QosConfig) -> QosState {
        QosState::new(QosPolicy::Throttle(cfg)).expect("throttle policy builds state")
    }

    #[test]
    fn off_policy_builds_no_state() {
        assert!(QosState::new(QosPolicy::Off).is_none());
    }

    #[test]
    fn suspect_needs_share_and_floor() {
        let mut q = state(QosConfig::default());
        // Thread 0 causes 4 triggers, thread 1 causes 1.
        for _ in 0..4 {
            q.on_pressure(0);
        }
        q.on_pressure(1);
        assert!(
            !q.tick(q.cfg.window_ps - 1),
            "no rotation inside the window"
        );
        assert!(q.tick(q.cfg.window_ps), "the boundary rotates");
        assert!(q.threads[0].suspect, "dominant trigger source is suspect");
        assert!(!q.threads[1].suspect, "minor source stays untouched");
        assert_eq!(q.activate_allowed_at(1), 0);
        // The suspect still has tokens, so it is not deferred yet.
        assert_eq!(q.activate_allowed_at(0), 0);
        for _ in 1..q.cfg.tokens_per_window {
            assert!(!q.on_act(0, false), "tokens left: release unchanged");
        }
        assert!(q.on_act(0, false), "the last token dries the bucket");
        assert!(!q.on_act(0, true), "a dry suspect stays dry");
        assert!(!q.on_act(1, false), "non-suspects never change release");
        assert_eq!(
            q.activate_allowed_at(0),
            2 * q.cfg.window_ps,
            "dry suspect releases at the window boundary"
        );
    }

    #[test]
    fn scores_decay_without_pressure() {
        let mut q = state(QosConfig::default());
        for _ in 0..8 {
            q.on_pressure(0);
        }
        q.tick(q.cfg.window_ps);
        assert!(q.threads[0].suspect);
        // Several silent windows: score halves each rotation and the
        // thread drops below the floor.
        q.tick(10 * q.cfg.window_ps);
        assert!(!q.threads[0].suspect, "score must decay to zero");
        assert_eq!(q.activate_allowed_at(0), 0);
        assert!(q.stats().per_thread[0].suspect_windows >= 1);
    }

    #[test]
    fn tick_catches_up_multiple_windows() {
        let mut q = state(QosConfig::default());
        q.tick(5 * q.cfg.window_ps);
        assert_eq!(q.stats().windows, 5);
        assert_eq!(q.window_end, 6 * q.cfg.window_ps);
    }

    #[test]
    fn victim_burst_cannot_outweigh_sustained_hammer() {
        let mut q = state(QosConfig::default());
        // Thread 0 hammers steadily for 6 windows...
        for w in 0..6u64 {
            for _ in 0..4 {
                q.on_pressure(0);
            }
            q.tick((w + 1) * q.cfg.window_ps);
        }
        // ...then pauses for two windows while a victim takes a 2-trigger
        // burst. Under a decayed-score-only share test the victim would
        // be elected here; the cumulative share test keeps it clean.
        q.on_pressure(1);
        q.on_pressure(1);
        q.tick(8 * q.cfg.window_ps);
        assert!(!q.threads[1].suspect, "victim burst must not elect");
        assert!(q.stats().per_thread[0].pressure > q.stats().per_thread[1].pressure);
    }

    #[test]
    fn below_floor_never_suspect_even_at_full_share() {
        let cfg = QosConfig {
            min_score: 100,
            ..QosConfig::default()
        };
        let mut q = state(cfg);
        q.on_pressure(0); // 100% of the total, but under the floor
        q.tick(cfg.window_ps);
        assert!(!q.threads[0].suspect);
    }

    #[test]
    fn stats_merge_is_additive_and_grows() {
        let mut a = QosStats {
            windows: 2,
            throttled_acts: 3,
            per_thread: vec![QosThreadStats {
                suspect_windows: 1,
                throttled_acts: 3,
                score: 10,
                pressure: 20,
            }],
        };
        let b = QosStats {
            windows: 1,
            throttled_acts: 5,
            per_thread: vec![
                QosThreadStats::default(),
                QosThreadStats {
                    suspect_windows: 4,
                    throttled_acts: 5,
                    score: 7,
                    pressure: 9,
                },
            ],
        };
        a.merge(&b);
        assert_eq!(a.windows, 3);
        assert_eq!(a.throttled_acts, 8);
        assert_eq!(a.per_thread.len(), 2);
        assert_eq!(a.per_thread[0].score, 10);
        assert_eq!(a.per_thread[1].suspect_windows, 4);
    }
}
