//! Open-loop load generation for the serving front end.
//!
//! A [`SessionSchedule`] models *per-user* browsing; a load test models
//! *offered load* — requests per second arriving whether or not the
//! system keeps up. [`ArrivalSchedule::open_loop`] generates such a
//! stream: a non-homogeneous Poisson process (Lewis–Shedler thinning over
//! a seeded substream) whose rate follows a [`LoadProfile`] — a base
//! request rate, a sinusoidal diurnal curve, and scheduled burst storms.
//! Being open-loop and fully precomputed, the schedule is independent of
//! how fast the system under test answers, so sweeps at different offered
//! loads are comparable and every run is replayable from its seed.
//!
//! [`ArrivalSchedule::from_sessions`] is the bridge back to the batch
//! world: it flattens the engine's own per-user session streams into one
//! time-ordered arrival list, which is what the serving equivalence proofs
//! feed the front end.

use crate::session::{BrowsingEvent, SessionConfig, SessionSchedule};
use adsim_types::rng::substream;
use adsim_types::{SimTime, SiteId, UserId};
use rand::Rng;

const DAY_MS: u64 = 86_400_000;

/// A burst storm: between `start_ms` and `start_ms + duration_ms` the
/// offered rate is multiplied by `multiplier`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Burst {
    /// Storm onset, in simulated milliseconds.
    pub start_ms: u64,
    /// Storm length, in simulated milliseconds.
    pub duration_ms: u64,
    /// Rate multiplier while the storm lasts (overlapping storms
    /// compound multiplicatively).
    pub multiplier: f64,
}

impl Burst {
    fn active_at(&self, at_ms: u64) -> bool {
        at_ms >= self.start_ms && at_ms < self.start_ms.saturating_add(self.duration_ms)
    }
}

/// The shape of offered load over simulated time.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadProfile {
    /// Mean request rate, in requests per simulated second.
    pub base_rps: f64,
    /// Diurnal swing as a fraction of `base_rps` (0 = flat, 0.5 = rate
    /// oscillates ±50% over each simulated day).
    pub diurnal_amplitude: f64,
    /// Scheduled burst storms.
    pub bursts: Vec<Burst>,
    /// Schedule horizon, in simulated milliseconds.
    pub horizon_ms: u64,
}

impl LoadProfile {
    /// A flat profile: `base_rps` for `horizon_ms`, no diurnal swing, no
    /// storms.
    pub fn flat(base_rps: f64, horizon_ms: u64) -> Self {
        Self {
            base_rps,
            diurnal_amplitude: 0.0,
            bursts: Vec::new(),
            horizon_ms,
        }
    }

    /// The instantaneous offered rate (requests per simulated second) at
    /// `at_ms`.
    pub fn rate_at(&self, at_ms: u64) -> f64 {
        let day_fraction = (at_ms % DAY_MS) as f64 / DAY_MS as f64;
        let diurnal =
            1.0 + self.diurnal_amplitude * (2.0 * std::f64::consts::PI * day_fraction).sin();
        let mut rate = self.base_rps * diurnal;
        for burst in &self.bursts {
            if burst.active_at(at_ms) {
                rate *= burst.multiplier;
            }
        }
        rate.max(0.0)
    }

    /// An upper bound on [`LoadProfile::rate_at`] over the whole horizon
    /// (the thinning envelope). Conservatively assumes every storm can
    /// overlap the diurnal peak.
    pub fn peak_rate(&self) -> f64 {
        let mut peak = self.base_rps * (1.0 + self.diurnal_amplitude.abs());
        for burst in &self.bursts {
            if burst.multiplier > 1.0 {
                peak *= burst.multiplier;
            }
        }
        peak
    }
}

/// One offered request: `user` wants a page on `site` at `at`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// The requesting user.
    pub user: UserId,
    /// The requested site.
    pub site: SiteId,
    /// The simulated arrival instant.
    pub at: SimTime,
}

/// A precomputed, time-sorted stream of offered requests.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ArrivalSchedule {
    arrivals: Vec<Arrival>,
}

impl ArrivalSchedule {
    /// Generates an open-loop arrival stream following `profile`.
    ///
    /// Implementation: Lewis–Shedler thinning. Candidate arrivals come
    /// from a homogeneous Poisson process at [`LoadProfile::peak_rate`]
    /// (exponential inter-arrival gaps), and each candidate at `t`
    /// survives with probability `rate_at(t) / peak_rate`. Users and
    /// sites are drawn uniformly per surviving arrival. The stream is a
    /// pure function of `(users, sites, profile, seed)` — the substream
    /// key `"loadgen"` keeps it independent of every other consumer of
    /// `seed`.
    ///
    /// # Panics
    /// Panics if `users` or `sites` is empty.
    pub fn open_loop(users: &[UserId], sites: &[SiteId], profile: &LoadProfile, seed: u64) -> Self {
        assert!(!users.is_empty(), "load generation needs users");
        assert!(!sites.is_empty(), "load generation needs sites");
        let mut rng = substream(seed, "loadgen");
        let peak_per_ms = profile.peak_rate() / 1_000.0;
        let mut arrivals = Vec::new();
        if peak_per_ms > 0.0 {
            let mut t_ms = 0.0_f64;
            loop {
                // Exponential gap at the envelope rate. gen::<f64>() is in
                // [0, 1); flip to (0, 1] so ln() stays finite.
                let u: f64 = 1.0 - rng.gen::<f64>();
                t_ms += -u.ln() / peak_per_ms;
                if t_ms >= profile.horizon_ms as f64 {
                    break;
                }
                let at_ms = t_ms as u64;
                let keep: f64 = rng.gen();
                if keep * profile.peak_rate() >= profile.rate_at(at_ms) {
                    continue;
                }
                let user = users[rng.gen_range(0..users.len())];
                let site = sites[rng.gen_range(0..sites.len())];
                arrivals.push(Arrival {
                    user,
                    site,
                    at: SimTime(at_ms),
                });
            }
        }
        Self { arrivals }
    }

    /// Flattens the batch engine's own workload into an arrival stream:
    /// each user's [`SessionSchedule::generate_day_for_user`] events (the
    /// exact per-user-per-day substreams the engine replays), days
    /// concatenated in order per user and stably sorted by time.
    ///
    /// Feeding this to the serving front end offers the platform the same
    /// opportunity multiset the batch engine simulates — the basis of the
    /// serving-vs-batch equivalence proofs.
    pub fn from_sessions(
        users: &[UserId],
        sites: &[SiteId],
        config: &SessionConfig,
        seed: u64,
    ) -> Self {
        let mut arrivals = Vec::new();
        for &user in users {
            for day in 0..config.days {
                for event in SessionSchedule::generate_day_for_user(user, sites, config, seed, day)
                {
                    let BrowsingEvent::PageView { user, site, at } = event;
                    arrivals.push(Arrival { user, site, at });
                }
            }
        }
        // Stable: same-instant events keep per-user generation order,
        // matching how the engine's shards replay them.
        arrivals.sort_by_key(|a| a.at);
        Self { arrivals }
    }

    /// The time-sorted arrivals.
    pub fn arrivals(&self) -> &[Arrival] {
        &self.arrivals
    }

    /// Number of offered requests.
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// True when the schedule offers nothing.
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn users(n: u64) -> Vec<UserId> {
        (0..n).map(UserId).collect()
    }

    fn sites() -> Vec<SiteId> {
        vec![SiteId(1), SiteId(2)]
    }

    #[test]
    fn rate_follows_diurnal_and_bursts() {
        let profile = LoadProfile {
            base_rps: 100.0,
            diurnal_amplitude: 0.5,
            bursts: vec![Burst {
                start_ms: 1_000,
                duration_ms: 500,
                multiplier: 3.0,
            }],
            horizon_ms: DAY_MS,
        };
        // Quarter-day is the sinusoid's crest.
        assert!((profile.rate_at(DAY_MS / 4) - 150.0).abs() < 1e-9);
        // Three-quarter day is its trough.
        assert!((profile.rate_at(3 * DAY_MS / 4) - 50.0).abs() < 1e-9);
        // Inside the burst window the rate is tripled; at the boundary the
        // storm is over.
        assert!(profile.rate_at(1_200) > 290.0);
        assert!(profile.rate_at(1_500) < 110.0);
        // The envelope dominates everywhere.
        for at in (0..DAY_MS).step_by(DAY_MS as usize / 97) {
            assert!(profile.rate_at(at) <= profile.peak_rate() + 1e-9);
        }
    }

    #[test]
    fn open_loop_is_deterministic_and_in_horizon() {
        let profile = LoadProfile::flat(50.0, 60_000);
        let a = ArrivalSchedule::open_loop(&users(10), &sites(), &profile, 7);
        let b = ArrivalSchedule::open_loop(&users(10), &sites(), &profile, 7);
        assert_eq!(a, b, "same seed, same schedule");
        let c = ArrivalSchedule::open_loop(&users(10), &sites(), &profile, 8);
        assert_ne!(a, c, "different seed, different schedule");
        // ~50 rps × 60 s ≈ 3000 arrivals; Poisson noise stays well inside
        // ±5 sigma (±274).
        assert!((2_700..=3_300).contains(&a.len()), "got {}", a.len());
        assert!(a.arrivals().windows(2).all(|w| w[0].at <= w[1].at));
        assert!(a.arrivals().iter().all(|arr| arr.at.0 < 60_000));
    }

    #[test]
    fn bursts_add_arrivals_where_scheduled() {
        let calm = LoadProfile::flat(20.0, 120_000);
        let stormy = LoadProfile {
            bursts: vec![Burst {
                start_ms: 0,
                duration_ms: 60_000,
                multiplier: 4.0,
            }],
            ..calm.clone()
        };
        let base = ArrivalSchedule::open_loop(&users(5), &sites(), &calm, 11);
        let burst = ArrivalSchedule::open_loop(&users(5), &sites(), &stormy, 11);
        let in_window =
            |s: &ArrivalSchedule| s.arrivals().iter().filter(|a| a.at.0 < 60_000).count();
        assert!(
            in_window(&burst) > 2 * in_window(&base),
            "storm window should densify: {} vs {}",
            in_window(&burst),
            in_window(&base)
        );
    }

    #[test]
    fn from_sessions_replays_the_engine_workload() {
        let us = users(6);
        let config = SessionConfig {
            views_per_user_per_day: 10.0,
            days: 2,
        };
        let schedule = ArrivalSchedule::from_sessions(&us, &sites(), &config, 42);
        assert!(schedule.arrivals().windows(2).all(|w| w[0].at <= w[1].at));
        // Per user, the arrival multiset equals that user's own day-keyed
        // session stream — the exact events the engine simulates.
        for &user in &us {
            let own: Vec<_> = (0..config.days)
                .flat_map(|day| {
                    SessionSchedule::generate_day_for_user(user, &sites(), &config, 42, day)
                })
                .collect();
            let mut mine: Vec<_> = schedule
                .arrivals()
                .iter()
                .filter(|a| a.user == user)
                .map(|a| BrowsingEvent::PageView {
                    user: a.user,
                    site: a.site,
                    at: a.at,
                })
                .collect();
            mine.sort_by_key(|e| e.at());
            assert_eq!(mine, own);
        }
    }
}
