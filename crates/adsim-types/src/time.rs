//! Simulated time.
//!
//! The entire workspace runs against a discrete simulated clock rather than
//! wall-clock time, so experiments are deterministic and can simulate weeks
//! of ad delivery in milliseconds of real time. The unit is the *simulated
//! millisecond*; [`Duration`] provides readable constructors
//! (`Duration::minutes(5)`) and [`SimTime`] is a monotone instant.
//!
//! [`SimClock`] is the shared clock handle the delivery loop advances. It
//! is a plain value type — stores that need shared access wrap it in their
//! own synchronization (see `adplatform::Platform`).

/// An instant on the simulated timeline, in milliseconds since simulation
/// start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time, in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(pub u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// Milliseconds since simulation start.
    pub fn millis(self) -> u64 {
        self.0
    }

    /// The instant `d` after this one (saturating).
    pub fn after(self, d: Duration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }

    /// Elapsed duration since `earlier`; zero if `earlier` is later.
    pub fn since(self, earlier: SimTime) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }
}

impl Duration {
    /// Zero-length duration.
    pub const ZERO: Duration = Duration(0);

    /// Duration of `n` simulated milliseconds.
    pub fn millis(n: u64) -> Duration {
        Duration(n)
    }

    /// Duration of `n` simulated seconds.
    pub fn seconds(n: u64) -> Duration {
        Duration(n * 1_000)
    }

    /// Duration of `n` simulated minutes.
    pub fn minutes(n: u64) -> Duration {
        Duration(n * 60_000)
    }

    /// Duration of `n` simulated hours.
    pub fn hours(n: u64) -> Duration {
        Duration(n * 3_600_000)
    }

    /// Duration of `n` simulated days.
    pub fn days(n: u64) -> Duration {
        Duration(n * 86_400_000)
    }

    /// The raw number of milliseconds in this duration.
    pub fn as_millis(self) -> u64 {
        self.0
    }

    /// Integer number of whole days in this duration.
    pub fn as_days(self) -> u64 {
        self.0 / 86_400_000
    }
}

impl std::ops::Add<Duration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: Duration) -> SimTime {
        self.after(rhs)
    }
}

impl std::ops::Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_add(rhs.0))
    }
}

impl std::ops::Mul<u64> for Duration {
    type Output = Duration;
    fn mul(self, rhs: u64) -> Duration {
        Duration(self.0.saturating_mul(rhs))
    }
}

impl std::fmt::Display for SimTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t+{}ms", self.0)
    }
}

impl std::fmt::Display for Duration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ms = self.0;
        if ms.is_multiple_of(86_400_000) && ms > 0 {
            write!(f, "{}d", ms / 86_400_000)
        } else if ms.is_multiple_of(3_600_000) && ms > 0 {
            write!(f, "{}h", ms / 3_600_000)
        } else if ms.is_multiple_of(1_000) && ms > 0 {
            write!(f, "{}s", ms / 1_000)
        } else {
            write!(f, "{}ms", ms)
        }
    }
}

/// The simulation clock.
///
/// A monotone counter the simulation driver advances. Components read the
/// current instant with [`SimClock::now`]; only the driver should call
/// [`SimClock::advance`] / [`SimClock::advance_to`].
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    now: SimTime,
}

impl SimClock {
    /// A clock at the simulation epoch.
    pub fn new() -> Self {
        Self { now: SimTime::ZERO }
    }

    /// The current simulated instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advances the clock by `d` and returns the new instant.
    pub fn advance(&mut self, d: Duration) -> SimTime {
        self.now = self.now.after(d);
        self.now
    }

    /// Advances the clock to `t`. Panics if `t` is in the past — discrete
    /// event simulations must never move backwards, and silently ignoring
    /// the error would hide driver bugs.
    pub fn advance_to(&mut self, t: SimTime) -> SimTime {
        assert!(
            t >= self.now,
            "simulation clock moved backwards: now={} requested={}",
            self.now,
            t
        );
        self.now = t;
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_constructors() {
        assert_eq!(Duration::seconds(2).as_millis(), 2_000);
        assert_eq!(Duration::minutes(3).as_millis(), 180_000);
        assert_eq!(Duration::hours(1).as_millis(), 3_600_000);
        assert_eq!(Duration::days(2).as_millis(), 172_800_000);
        assert_eq!(Duration::days(2).as_days(), 2);
    }

    #[test]
    fn simtime_arithmetic() {
        let t = SimTime::ZERO + Duration::seconds(5);
        assert_eq!(t.millis(), 5_000);
        assert_eq!(t.since(SimTime(2_000)).as_millis(), 3_000);
        // `since` saturates rather than underflowing.
        assert_eq!(SimTime(1).since(SimTime(2)).as_millis(), 0);
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut clock = SimClock::new();
        assert_eq!(clock.now(), SimTime::ZERO);
        clock.advance(Duration::minutes(1));
        assert_eq!(clock.now().millis(), 60_000);
        clock.advance_to(SimTime(120_000));
        assert_eq!(clock.now().millis(), 120_000);
    }

    #[test]
    #[should_panic(expected = "moved backwards")]
    fn clock_rejects_time_travel() {
        let mut clock = SimClock::new();
        clock.advance(Duration::seconds(10));
        clock.advance_to(SimTime(1));
    }

    #[test]
    fn duration_display_is_human_readable() {
        assert_eq!(Duration::days(1).to_string(), "1d");
        assert_eq!(Duration::hours(2).to_string(), "2h");
        assert_eq!(Duration::seconds(30).to_string(), "30s");
        assert_eq!(Duration::millis(5).to_string(), "5ms");
    }

    #[test]
    fn duration_mul() {
        assert_eq!((Duration::seconds(1) * 60).as_millis(), 60_000);
    }
}
