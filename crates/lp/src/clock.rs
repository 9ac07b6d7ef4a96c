//! Sanctioned timing for solver paths.
//!
//! Solver code must not call `Instant::now()` directly (the
//! `wall-clock-in-solver` lint): timing readings are observable in
//! `SolveStats`, and a caller comparing runs bit-for-bit — the
//! determinism proptests, a replayed epoch, CI — needs them to be
//! reproducible. All solver timing therefore flows through [`Stopwatch`],
//! which deterministic callers can globally zero out with
//! [`set_enabled`]`(false)`: every reading becomes exactly `0.0` and the
//! wall clock is never consulted.
//!
//! Timing state never feeds solver *decisions* — pivot budgets are
//! iteration counts, not milliseconds — so disabling the clock changes
//! reports, never results.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Globally enable or disable solver timing. Disabled, every
/// [`Stopwatch`] reads `0.0` ms and never consults the wall clock.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether solver timing is currently enabled.
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// A wall-clock stopwatch that respects the global switch.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Option<Instant>);

impl Stopwatch {
    /// Start timing (a no-op recording nothing when timing is disabled).
    #[expect(
        clippy::disallowed_methods,
        reason = "the one sanctioned stopwatch; its readings never feed a decision"
    )]
    pub fn start() -> Self {
        if is_enabled() {
            Stopwatch(Some(Instant::now()))
        } else {
            Stopwatch(None)
        }
    }

    /// Milliseconds since [`Stopwatch::start`]; exactly `0.0` when timing
    /// was disabled at start time.
    pub fn elapsed_ms(&self) -> f64 {
        self.0.map_or(0.0, |t| t.elapsed().as_secs_f64() * 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_stopwatch_reads_zero() {
        set_enabled(false);
        let sw = Stopwatch::start();
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert_eq!(sw.elapsed_ms(), 0.0);
        set_enabled(true);
        let sw = Stopwatch::start();
        assert!(sw.elapsed_ms() >= 0.0);
    }
}
