//! Sanctioned wall-clock access for runtime *reporting*.
//!
//! `clippy.toml`'s `disallowed-methods` bans raw `Instant::now` /
//! `SystemTime::now` outside `crates/bench` (DESIGN.md §6c, rule L3):
//! wall-clock reads scattered through solver code are how time-dependent
//! behavior (and thus nondeterminism) creeps in. The one
//! legitimate use in library code is measuring how long a solve took so the
//! result can *report* it — the measured duration must never feed back into
//! a decision.
//!
//! [`Stopwatch`] is the sanctioned wrapper for that purpose. Keeping it in
//! one place makes the contract auditable: a `Stopwatch` can tell you how
//! long something took, but offers no absolute time, no comparison against
//! deadlines of other stopwatches, and no way to seed randomness.
//! It has no way to compare elapsed time against a deadline either: solver
//! limits are counts (B&B nodes, rounds), never seconds.

use std::time::Duration;

/// A monotonic stopwatch for reporting solver runtimes.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(std::time::Instant);

impl Stopwatch {
    /// Start timing now.
    #[inline]
    #[expect(
        clippy::disallowed_methods,
        reason = "this is the single sanctioned wall-clock read; everything else in the workspace goes through Stopwatch so timing never silently influences results: time flows into reports (Stopwatch -> millis), never into placement or routing decisions"
    )]
    pub fn start() -> Self {
        Stopwatch(std::time::Instant::now())
    }

    /// Elapsed time since [`start`](Self::start).
    #[inline]
    #[expect(
        clippy::disallowed_methods,
        reason = "paired read for the sanctioned wrapper; same rationale as `start`"
    )]
    pub fn elapsed(&self) -> Duration {
        std::time::Instant::now().duration_since(self.0)
    }

    /// Elapsed milliseconds as `f64` (the unit every report field uses).
    #[inline]
    pub fn elapsed_ms(&self) -> f64 {
        self.elapsed().as_secs_f64() * 1e3
    }

    /// Elapsed seconds as `f64`.
    #[inline]
    pub fn elapsed_secs(&self) -> f64 {
        self.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_is_monotone() {
        let sw = Stopwatch::start();
        let a = sw.elapsed_ms();
        let b = sw.elapsed_ms();
        assert!(b >= a && a >= 0.0);
        assert!(sw.elapsed_secs() >= 0.0);
    }
}
