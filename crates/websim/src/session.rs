//! Browsing sessions: the event source that drives ad delivery.
//!
//! "Users see these Treads while browsing normally" — this module
//! generates that normal browsing. A [`SessionSchedule`] is a
//! time-sorted stream of page views; driving it against a
//! [`adplatform::Platform`] advances the simulated clock, fires the
//! tracking pixels embedded on each visited site, runs one auction per ad
//! slot, and feeds every rendered ad into the viewing user's browser
//! extension.

use crate::extension::ExtensionLog;
use crate::site::SiteRegistry;
use adplatform::auction::AuctionOutcome;
use adplatform::Platform;
use adsim_types::{SimTime, SiteId, UserId};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::BTreeMap;

/// One browsing event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BrowsingEvent {
    /// `user` loads a page on `site` at `at`.
    PageView {
        /// The browsing user.
        user: UserId,
        /// The visited site.
        site: SiteId,
        /// The simulated instant.
        at: SimTime,
    },
}

impl BrowsingEvent {
    /// The event's timestamp.
    pub fn at(&self) -> SimTime {
        match self {
            BrowsingEvent::PageView { at, .. } => *at,
        }
    }
}

/// Domain constant of the per-`(user, day)` browsing streams. Checkpoint
/// cursors count events of the schedules these streams draw, so changing
/// it (or the draw order in [`SessionSchedule::generate_day_for_user`])
/// needs a checkpoint version bump.
const SESSION_DAY_DOMAIN: u64 = 0x5345_5353_5f44_4159; // "SESS_DAY"

/// The `(user, day)` stream of `seed` after its first draw, and the
/// day's event count that draw decides: `floor(views_per_user_per_day)`
/// plus one with probability `fract(views_per_user_per_day)`.
fn day_stream(user: UserId, config: &SessionConfig, seed: u64, day: u64) -> (StdRng, u64) {
    assert!(
        day < config.days,
        "day {} outside horizon {}",
        day,
        config.days
    );
    let mut rng = adsim_types::rng::keyed_stream(seed, SESSION_DAY_DOMAIN, &[user.raw(), day]);
    let expected = config.views_per_user_per_day;
    let mut n = expected.floor() as u64;
    if rng.gen::<f64>() < expected.fract() {
        n += 1;
    }
    (rng, n)
}

/// Workload shape for schedule generation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionConfig {
    /// Mean page views per user per simulated day.
    pub views_per_user_per_day: f64,
    /// Number of simulated days.
    pub days: u64,
}

impl Default for SessionConfig {
    fn default() -> Self {
        Self {
            views_per_user_per_day: 20.0,
            days: 7,
        }
    }
}

/// Summary of one schedule drive.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DriveReport {
    /// Page views processed.
    pub page_views: u64,
    /// Pixel fires routed into the platform.
    pub pixel_fires: u64,
    /// Ad impressions delivered (auctions won by advertiser ads).
    pub impressions: u64,
}

/// A time-sorted browsing workload.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SessionSchedule {
    events: Vec<BrowsingEvent>,
}

impl SessionSchedule {
    /// Builds a schedule from explicit events (sorted internally).
    pub fn from_events(mut events: Vec<BrowsingEvent>) -> Self {
        events.sort_by_key(|e| e.at());
        Self { events }
    }

    /// Generates a schedule: each user makes
    /// `views_per_user_per_day × days` page views (Poisson-rounded via a
    /// per-view Bernoulli grid) at uniform times, each on a uniformly
    /// chosen site.
    pub fn generate<R: Rng>(
        users: &[UserId],
        sites: &[SiteId],
        config: &SessionConfig,
        rng: &mut R,
    ) -> Self {
        assert!(!sites.is_empty(), "schedule needs at least one site");
        let horizon_ms = config.days * 86_400_000;
        let mut events = Vec::new();
        for &user in users {
            let expected = config.views_per_user_per_day * config.days as f64;
            // Integer part guaranteed, fractional part Bernoulli.
            let mut n = expected.floor() as u64;
            if rng.gen::<f64>() < expected.fract() {
                n += 1;
            }
            for _ in 0..n {
                let at = SimTime(rng.gen_range(0..horizon_ms.max(1)));
                let site = sites[rng.gen_range(0..sites.len())];
                events.push(BrowsingEvent::PageView { user, site, at });
            }
        }
        Self::from_events(events)
    }

    /// Generates one simulated day of one user's schedule from the
    /// stream of `seed` keyed on `(user, day)`
    /// ([`adsim_types::rng::keyed_stream`] under this module's session
    /// domain constant).
    ///
    /// This is the engine's session source: day `d`'s events are a pure
    /// function of `(user, seed, d)`, independent of which shard (or
    /// pipeline stage) generates them and of whether earlier days were
    /// ever materialized. The engine exploits that purity to generate
    /// tick `t+1`'s browsing while tick `t` is still being merged, and to
    /// resume a checkpoint by regenerating only the days it needs.
    ///
    /// Shape per day: `floor(views_per_user_per_day)` views guaranteed
    /// plus one more with probability `fract(views_per_user_per_day)`,
    /// each at a uniform instant within `[day·86_400_000, (day+1)·86_400_000)`
    /// on a uniformly chosen site, time-sorted.
    pub fn generate_day_for_user(
        user: UserId,
        sites: &[SiteId],
        config: &SessionConfig,
        seed: u64,
        day: u64,
    ) -> Vec<BrowsingEvent> {
        assert!(!sites.is_empty(), "schedule needs at least one site");
        let (mut rng, n) = day_stream(user, config, seed, day);
        let day_start = day * 86_400_000;
        let mut events = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let at = SimTime(day_start + rng.gen_range(0..86_400_000u64));
            let site = sites[rng.gen_range(0..sites.len())];
            events.push(BrowsingEvent::PageView { user, site, at });
        }
        events.sort_by_key(|e| e.at());
        events
    }

    /// The number of events [`Self::generate_day_for_user`] returns for
    /// the same user, config, seed and day, read from the day's first
    /// draw without generating an event. A resume skips fully consumed
    /// days with it.
    pub fn day_len_for_user(user: UserId, config: &SessionConfig, seed: u64, day: u64) -> u64 {
        day_stream(user, config, seed, day).1
    }

    /// The time-sorted events.
    pub fn events(&self) -> &[BrowsingEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Drives the schedule against a platform.
    ///
    /// For each page view, in time order: advance the platform clock, fire
    /// the site's pixels, auction each ad slot, and record every rendered
    /// ad into the viewing user's [`ExtensionLog`] (if they run one).
    pub fn drive(
        &self,
        platform: &mut Platform,
        sites: &SiteRegistry,
        extensions: &mut BTreeMap<UserId, ExtensionLog>,
    ) -> DriveReport {
        let mut report = DriveReport::default();
        for event in &self.events {
            let BrowsingEvent::PageView { user, site, at } = *event;
            if at >= platform.clock.now() {
                platform.clock.advance_to(at);
            }
            let site = match sites.get(site) {
                Some(s) => s.clone(),
                None => continue,
            };
            report.page_views += 1;
            for &pixel in &site.pixels {
                if platform.user_fires_pixel(user, pixel).is_ok() {
                    report.pixel_fires += 1;
                }
            }
            for _ in 0..site.ad_slots_per_view {
                if let Ok(AuctionOutcome::Won { ad, .. }) = platform.browse(user) {
                    report.impressions += 1;
                    if let Some(log) = extensions.get_mut(&user) {
                        let ad_row = platform.campaigns.ad(ad).expect("won ad exists");
                        log.observe(ad, ad_row.creative.clone(), at);
                    }
                }
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adplatform::attributes::{AttributeCatalog, AttributeSource};
    use adplatform::auction::AuctionConfig;
    use adplatform::campaign::AdCreative;
    use adplatform::profile::Gender;
    use adplatform::targeting::{TargetingExpr, TargetingSpec};
    use adplatform::PlatformConfig;
    use adsim_types::rng::substream;
    use adsim_types::stats::chi_square_sf;
    use adsim_types::Money;

    fn platform() -> Platform {
        let mut catalog = AttributeCatalog::new();
        catalog.register("Interest: coffee", AttributeSource::Platform, None, 0.3);
        Platform::new(
            PlatformConfig {
                auction: AuctionConfig {
                    competitor_rate: 0.0,
                    ..AuctionConfig::default()
                },
                frequency_cap: 100,
                ..PlatformConfig::default()
            },
            catalog,
        )
    }

    #[test]
    fn generate_is_sorted_and_sized() {
        let users: Vec<UserId> = (1..=10).map(UserId).collect();
        let sites = vec![SiteId(1), SiteId(2)];
        let mut rng = substream(1, "session");
        let config = SessionConfig {
            views_per_user_per_day: 5.0,
            days: 2,
        };
        let schedule = SessionSchedule::generate(&users, &sites, &config, &mut rng);
        assert_eq!(schedule.len(), 10 * 10); // exactly 5*2 views each
        let times: Vec<u64> = schedule.events().iter().map(|e| e.at().millis()).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted);
    }

    #[test]
    fn day_generation_is_windowed_and_pure() {
        let sites = vec![SiteId(1), SiteId(2), SiteId(3)];
        let config = SessionConfig {
            views_per_user_per_day: 6.5,
            days: 4,
        };
        for day in 0..config.days {
            let a = SessionSchedule::generate_day_for_user(UserId(9), &sites, &config, 7, day);
            // Pure in (user, seed, day): regenerating in any context is
            // bit-identical — the basis of the pipelined tick overlap.
            let b = SessionSchedule::generate_day_for_user(UserId(9), &sites, &config, 7, day);
            assert_eq!(a, b);
            // Every event belongs to the requested user.
            assert!(a
                .iter()
                .all(|&BrowsingEvent::PageView { user, .. }| user == UserId(9)));
            // Windowed: every event lands inside the day.
            let (lo, hi) = (day * 86_400_000, (day + 1) * 86_400_000);
            assert!(a.iter().all(|e| {
                let t = e.at().millis();
                lo <= t && t < hi
            }));
            // Sorted and sized per the Bernoulli grid.
            assert!(a.windows(2).all(|w| w[0].at() <= w[1].at()));
            assert!(a.len() == 6 || a.len() == 7, "len {}", a.len());
        }
        // Distinct days (and users, and seeds) draw distinct substreams.
        let d0 = SessionSchedule::generate_day_for_user(UserId(9), &sites, &config, 7, 0);
        let d1 = SessionSchedule::generate_day_for_user(UserId(9), &sites, &config, 7, 1);
        assert_ne!(d0, d1);
        let other = SessionSchedule::generate_day_for_user(UserId(10), &sites, &config, 7, 0);
        assert_ne!(d0, other);
        let reseeded = SessionSchedule::generate_day_for_user(UserId(9), &sites, &config, 8, 0);
        assert_ne!(d0, reseeded);
    }

    #[test]
    fn day_len_is_the_generated_days_length() {
        let sites = [SiteId(1), SiteId(2)];
        for views in [0.0, 0.4, 2.5, 6.0] {
            let config = SessionConfig {
                views_per_user_per_day: views,
                days: 3,
            };
            for (user, day) in (1..40).flat_map(|u| (0..3).map(move |d| (UserId(u), d))) {
                let events = SessionSchedule::generate_day_for_user(user, &sites, &config, 5, day);
                assert_eq!(
                    SessionSchedule::day_len_for_user(user, &config, 5, day),
                    events.len() as u64
                );
            }
        }
    }

    #[test]
    fn day_schedule_is_pinned() {
        // Checkpoint cursors count events of these schedules: a resume
        // counts whole days from their first draw, regenerates the day
        // holding the cursor and skips its consumed prefix. A change to the
        // derivation or the draw order changes what a cursor points at,
        // so it must bump CHECKPOINT_VERSION (treads-resilience) too.
        let sites = [SiteId(1), SiteId(2), SiteId(3)];
        let config = SessionConfig {
            views_per_user_per_day: 2.5,
            days: 3,
        };
        let got: Vec<(u64, u64)> =
            SessionSchedule::generate_day_for_user(UserId(42), &sites, &config, 7, 1)
                .iter()
                .map(|&BrowsingEvent::PageView { site, at, .. }| (site.raw(), at.millis()))
                .collect();
        assert_eq!(
            got,
            [(1, 116_036_169), (2, 141_610_822), (1, 166_222_430)],
            "generate_day_for_user changed: bump CHECKPOINT_VERSION and re-pin"
        );
    }

    #[test]
    fn day_streams_keep_the_traffic_shape() {
        // Over many user-days the keyed streams must draw the documented
        // shape: uniform sites, uniform instants within the day, and the
        // extra fractional view on a `fract` share of days.
        let sites: Vec<SiteId> = (1..=7).map(SiteId).collect();
        let config = SessionConfig {
            views_per_user_per_day: 3.3,
            days: 4,
        };
        let (users, days) = (6_000u64, config.days);
        let mut site_counts = [0u64; 7];
        let mut hour_counts = [0u64; 24];
        let mut extra_days = 0u64;
        for user in 1..=users {
            for day in 0..days {
                let events =
                    SessionSchedule::generate_day_for_user(UserId(user), &sites, &config, 11, day);
                extra_days += u64::from(events.len() == 4);
                for &BrowsingEvent::PageView { site, at, .. } in &events {
                    site_counts[site.raw() as usize - 1] += 1;
                    hour_counts[((at.millis() - day * 86_400_000) / 3_600_000) as usize] += 1;
                }
            }
        }
        let user_days = (users * days) as f64;
        let fit = |counts: &[u64]| {
            let total: u64 = counts.iter().sum();
            let expected = total as f64 / counts.len() as f64;
            let stat: f64 = counts
                .iter()
                .map(|&c| (c as f64 - expected).powi(2) / expected)
                .sum();
            chi_square_sf(stat, counts.len() as u64 - 1)
        };
        let p_site = fit(&site_counts);
        assert!(p_site > 1e-3, "site choice p = {p_site}: {site_counts:?}");
        let p_hour = fit(&hour_counts);
        assert!(p_hour > 1e-3, "hour of day p = {p_hour}: {hour_counts:?}");
        let p = 0.3f64;
        let sigma = (p * (1.0 - p) / user_days).sqrt();
        let share = extra_days as f64 / user_days;
        assert!(
            (share - p).abs() < 4.0 * sigma,
            "extra-view share {share} vs fract {p} (sigma {sigma})"
        );
    }

    #[test]
    fn drive_delivers_and_captures() {
        let mut p = platform();
        let adv = p.register_advertiser("adv");
        let acct = p.open_account(adv).expect("account");
        let user = p.register_user(30, Gender::Female, "Ohio", "43004");
        let camp = p
            .create_campaign(acct, "c", Money::dollars(10), None)
            .expect("campaign");
        p.submit_ad(
            camp,
            AdCreative::text("Hello", "World"),
            TargetingSpec::including(TargetingExpr::Everyone),
        )
        .expect("ad");

        let mut sites = SiteRegistry::new();
        let feed = sites.create("feed.example", 2);
        let schedule = SessionSchedule::from_events(vec![
            BrowsingEvent::PageView {
                user,
                site: feed,
                at: SimTime(100),
            },
            BrowsingEvent::PageView {
                user,
                site: feed,
                at: SimTime(200),
            },
        ]);
        let mut extensions = BTreeMap::new();
        extensions.insert(user, ExtensionLog::for_user(user));
        let report = schedule.drive(&mut p, &sites, &mut extensions);
        assert_eq!(report.page_views, 2);
        assert_eq!(report.impressions, 4); // 2 views x 2 slots
        assert_eq!(extensions[&user].len(), 4);
        assert_eq!(p.clock.now(), SimTime(200));
    }

    #[test]
    fn drive_fires_pixels_on_instrumented_sites() {
        let mut p = platform();
        let adv = p.register_advertiser("provider");
        let acct = p.open_account(adv).expect("account");
        let pixel = p.create_pixel(acct, "optin").expect("pixel");
        let audience = p.create_pixel_audience(acct, pixel).expect("audience");
        let user = p.register_user(30, Gender::Female, "Ohio", "43004");

        let mut sites = SiteRegistry::new();
        let optin = sites.create("optin.example", 0);
        sites.embed_pixel(optin, pixel);
        let schedule = SessionSchedule::from_events(vec![BrowsingEvent::PageView {
            user,
            site: optin,
            at: SimTime(50),
        }]);
        let mut extensions = BTreeMap::new();
        let report = schedule.drive(&mut p, &sites, &mut extensions);
        assert_eq!(report.pixel_fires, 1);
        assert_eq!(report.impressions, 0);
        assert!(p.audiences.get(audience).expect("aud").contains(user));
    }

    #[test]
    fn users_without_extension_are_not_captured() {
        let mut p = platform();
        let adv = p.register_advertiser("adv");
        let acct = p.open_account(adv).expect("account");
        let user = p.register_user(30, Gender::Male, "Ohio", "43004");
        let camp = p
            .create_campaign(acct, "c", Money::dollars(10), None)
            .expect("campaign");
        p.submit_ad(
            camp,
            AdCreative::text("h", "b"),
            TargetingSpec::including(TargetingExpr::Everyone),
        )
        .expect("ad");
        let mut sites = SiteRegistry::new();
        let feed = sites.create("feed.example", 1);
        let schedule = SessionSchedule::from_events(vec![BrowsingEvent::PageView {
            user,
            site: feed,
            at: SimTime(10),
        }]);
        let mut extensions: BTreeMap<UserId, ExtensionLog> = BTreeMap::new();
        let report = schedule.drive(&mut p, &sites, &mut extensions);
        assert_eq!(report.impressions, 1);
        assert!(extensions.is_empty());
    }

    #[test]
    fn unknown_sites_are_skipped() {
        let mut p = platform();
        let user = p.register_user(30, Gender::Male, "Ohio", "43004");
        let sites = SiteRegistry::new();
        let schedule = SessionSchedule::from_events(vec![BrowsingEvent::PageView {
            user,
            site: SiteId(99),
            at: SimTime(10),
        }]);
        let mut extensions = BTreeMap::new();
        let report = schedule.drive(&mut p, &sites, &mut extensions);
        assert_eq!(report.page_views, 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use adsim_types::rng::substream;
    use proptest::prelude::*;

    proptest! {
        /// Generated schedules are time-sorted, within the horizon, sized
        /// per the config, and deterministic per seed.
        #[test]
        fn schedule_generation_invariants(
            n_users in 1usize..20,
            n_sites in 1usize..5,
            views in 0.0f64..10.0,
            days in 1u64..5,
            seed in 0u64..1_000,
        ) {
            let users: Vec<UserId> = (1..=n_users as u64).map(UserId).collect();
            let sites: Vec<SiteId> = (1..=n_sites as u64).map(SiteId).collect();
            let config = SessionConfig {
                views_per_user_per_day: views,
                days,
            };
            let mut rng = substream(seed, "session-prop");
            let schedule = SessionSchedule::generate(&users, &sites, &config, &mut rng);
            // Sorted.
            let times: Vec<u64> = schedule.events().iter().map(|e| e.at().millis()).collect();
            let mut sorted = times.clone();
            sorted.sort_unstable();
            prop_assert_eq!(&times, &sorted);
            // Within the horizon.
            let horizon = days * 86_400_000;
            prop_assert!(times.iter().all(|&t| t < horizon.max(1)));
            // Size within the integer/fractional bound per user.
            let expected = views * days as f64;
            let min = expected.floor() as usize * n_users;
            let max = (expected.floor() as usize + 1) * n_users;
            prop_assert!(schedule.len() >= min && schedule.len() <= max,
                "len {} outside [{}, {}]", schedule.len(), min, max);
            // Deterministic.
            let mut rng2 = substream(seed, "session-prop");
            let again = SessionSchedule::generate(&users, &sites, &config, &mut rng2);
            prop_assert_eq!(schedule, again);
        }

        /// Day-keyed generation stays inside its day window, is sorted,
        /// sized per the per-day Bernoulli grid, and pure per (user,
        /// seed, day).
        #[test]
        fn day_generation_invariants(
            user in 1u64..500,
            n_sites in 1usize..5,
            views in 0.0f64..10.0,
            days in 1u64..5,
            day_pick in 0u64..5,
            seed in 0u64..1_000,
        ) {
            let day = day_pick % days;
            let sites: Vec<SiteId> = (1..=n_sites as u64).map(SiteId).collect();
            let config = SessionConfig {
                views_per_user_per_day: views,
                days,
            };
            let events =
                SessionSchedule::generate_day_for_user(UserId(user), &sites, &config, seed, day);
            let times: Vec<u64> = events.iter().map(|e| e.at().millis()).collect();
            let mut sorted = times.clone();
            sorted.sort_unstable();
            prop_assert_eq!(&times, &sorted);
            let (lo, hi) = (day * 86_400_000, (day + 1) * 86_400_000);
            prop_assert!(times.iter().all(|&t| lo <= t && t < hi));
            let min = views.floor() as usize;
            prop_assert!(events.len() >= min && events.len() <= min + 1);
            let again =
                SessionSchedule::generate_day_for_user(UserId(user), &sites, &config, seed, day);
            prop_assert_eq!(events, again);
        }
    }
}
