//! Scoped wall-time spans.
//!
//! A [`SpanTimer`] is a started stopwatch; ending it against a
//! [`crate::Telemetry`] records the elapsed nanoseconds into a
//! `*_ns`-suffixed histogram. The [`crate::span!`] macro wraps an
//! expression in a span without borrowing the telemetry handle across the
//! body (which would fight the borrow checker in hot loops that also
//! record counters).
//!
//! When the owning telemetry handle is disabled, a timer is `None` inside
//! and never touches the clock.

use std::time::Instant;

/// A started (or inert) stopwatch.
#[derive(Debug, Clone, Copy)]
pub struct SpanTimer(Option<Instant>);

impl SpanTimer {
    /// Starts a stopwatch.
    pub fn start() -> Self {
        Self::start_if(true)
    }

    /// Starts a stopwatch only if `enabled`; otherwise returns an inert
    /// timer that reads 0. Shard threads use this form — they carry the
    /// enabled flag as a plain bool instead of a borrow of the engine's
    /// telemetry handle.
    pub fn start_if(enabled: bool) -> Self {
        if enabled {
            SpanTimer(Some(Instant::now()))
        } else {
            SpanTimer(None)
        }
    }

    /// Nanoseconds since the timer started (0 for inert timers).
    pub fn elapsed_ns(&self) -> u64 {
        match self.0 {
            Some(start) => start.elapsed().as_nanos() as u64,
            None => 0,
        }
    }

    /// True if this timer is actually measuring.
    pub fn is_running(&self) -> bool {
        self.0.is_some()
    }
}

/// Times an expression and records it as a span on a telemetry handle:
///
/// ```
/// use treads_telemetry::{span, Telemetry};
/// let mut telemetry = Telemetry::new();
/// let merged = span!(telemetry, "phase.merge_ns", {
///     (0..100).sum::<u64>()
/// });
/// assert_eq!(merged, 4950);
/// // The histogram exists whenever the handle is enabled.
/// assert_eq!(
///     telemetry.metrics().histogram("phase.merge_ns").is_some(),
///     telemetry.is_enabled()
/// );
/// ```
#[macro_export]
macro_rules! span {
    ($telemetry:expr, $name:expr, $body:expr) => {{
        let __span_timer = $telemetry.span();
        let __span_result = $body;
        $telemetry.end_span($name, __span_timer);
        __span_result
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_timers_read_zero() {
        let t = SpanTimer::start_if(false);
        assert!(!t.is_running());
        assert_eq!(t.elapsed_ns(), 0);
    }

    #[test]
    fn running_timers_advance() {
        let t = SpanTimer::start();
        assert!(t.is_running());
        std::hint::black_box(vec![0u8; 4096]);
        // Monotonic clocks can legitimately read 0ns across a short body,
        // so only assert the timer is live and non-decreasing.
        let a = t.elapsed_ns();
        let b = t.elapsed_ns();
        assert!(b >= a);
    }
}
