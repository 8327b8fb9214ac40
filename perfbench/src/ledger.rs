//! The layer ledger: busy time and call counts of calls into a layer's
//! public functions, timed from outside the program.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Busy time and calls of one public boundary.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Span {
    /// Wall time spent inside the calls.
    pub busy: Duration,
    /// Calls made.
    pub calls: u64,
}

/// Per-boundary accumulators, keyed by the boundary's busy-time metric
/// name (`core.run.busy_ms`, ...).
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    spans: BTreeMap<&'static str, Span>,
}

impl Ledger {
    /// Runs `f`, booking its wall time against `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.add(name, t0.elapsed());
        out
    }

    /// Books one call of `busy` against `name`.
    pub fn add(&mut self, name: &'static str, busy: Duration) {
        let span = self.spans.entry(name).or_default();
        span.busy += busy;
        span.calls += 1;
    }

    /// Busy time booked against `name` (zero if never called).
    pub fn busy(&self, name: &str) -> Duration {
        self.spans.get(name).map_or(Duration::ZERO, |s| s.busy)
    }

    /// One detail line per boundary: busy time and calls.
    pub fn describe(&self) -> Vec<String> {
        self.spans
            .iter()
            .map(|(name, s)| {
                format!(
                    "{name}: {:.3} ms over {} calls",
                    s.busy.as_secs_f64() * 1e3,
                    s.calls
                )
            })
            .collect()
    }

    /// Busy time summed over every boundary.
    pub fn total(&self) -> Duration {
        self.spans.values().map(|s| s.busy).sum()
    }
}

/// Ledger closure: the share of a loop's wall time that its timed calls
/// account for. Close to 1 when the calls are the loop's work.
pub fn closure(timed: Duration, loop_wall: Duration) -> f64 {
    if loop_wall.is_zero() {
        return 0.0;
    }
    timed.as_secs_f64() / loop_wall.as_secs_f64()
}

/// Largest distance of a closure from 1 that still counts as closed.
pub const CLOSURE_TOLERANCE: f64 = 0.05;

/// Whether a closure is within [`CLOSURE_TOLERANCE`] of 1.
pub fn closes(closure: f64) -> bool {
    (closure - 1.0).abs() <= CLOSURE_TOLERANCE
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn books_busy_time_and_calls() {
        let mut l = Ledger::default();
        l.add("core.run", ms(30));
        l.add("core.run", ms(20));
        l.add("core.allocate", ms(5));
        assert_eq!(l.busy("core.run"), ms(50));
        assert_eq!(l.spans["core.run"].calls, 2);
        assert_eq!(l.busy("core.deallocate"), Duration::ZERO);
        assert_eq!(l.total(), ms(55));
        assert_eq!(l.time("x", || 7), 7);
        assert_eq!(l.spans["x"].calls, 1);
        assert_eq!(l.describe()[1], "core.run: 50.000 ms over 2 calls");
    }

    #[test]
    fn closure_arithmetic() {
        assert!((closure(ms(97), ms(100)) - 0.97).abs() < 1e-12);
        assert!(closes(closure(ms(97), ms(100))));
        assert!(closes(closure(ms(104), ms(100))));
        assert!(!closes(closure(ms(94), ms(100))));
        assert!(!closes(closure(ms(106), ms(100))));
        assert_eq!(closure(ms(5), Duration::ZERO), 0.0);
        assert!(!closes(0.0));
    }
}
