//! `treads-engine`: sharded, deterministic parallel simulation engine.
//!
//! The single-threaded driver ([`websim::SessionSchedule::drive`])
//! replays a global time-sorted event list against one mutable
//! [`adplatform::Platform`]; fine for thousands of users, hopeless for a
//! million. This crate runs the same simulation **sharded**: users are
//! partitioned across worker threads ([`treads_workload::ShardPlan`]),
//! each shard generates and browses its users' sessions in parallel, and
//! the shards' effects are folded back into the platform in a canonical
//! order — so any shard count produces **bit-identical** invoices, ad
//! reports, impression logs, and Tread reveals.
//!
//! Determinism rests on three rules (see DESIGN.md "Engine architecture"):
//!
//! 1. **Per-user randomness.** Every user draws each day's sessions from
//!    the stream keyed on `(user, day)` and auction randomness from the
//!    stream keyed on the user ([`auction_rng`]), both derived from the
//!    one master seed — never from a shared stream whose interleaving
//!    would depend on scheduling.
//! 2. **Bulk-synchronous ticks.** Mutable global state (campaign budgets,
//!    pixel/visitor audiences) is frozen at tick start; effects produced
//!    during a tick apply at the tick boundary, so every shard — and every
//!    shard count — sees the same platform for the same tick.
//! 3. **Canonical merge order.** Batched events sort by
//!    `(at, user, user_seq)` — a key computed entirely from user-owned
//!    state — before they touch the platform, making the merge invariant
//!    to how users were partitioned.
//!
//! The same three rules are what make the engine **supervisable** (see
//! DESIGN.md "Failure model & recovery"): because a shard only mutates
//! state it owns and only reads frozen state, a crashed shard tick can be
//! re-executed from its tick-start snapshot with no cross-shard
//! coordination ([`Engine::run_resilient`]), and a tick boundary is a
//! consistent cut the whole run can be checkpointed at and resumed from
//! ([`Engine::resume_from`]) — byte-identically in both cases.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod event;
pub mod merge;
pub mod shard;
pub mod view;

pub use engine::{
    fold_tick_events, journal_tick, publish_tick, register_run_counters, Engine, EngineConfig,
    EngineOutcome, EngineReport, ResilienceOptions, ResilientOutcome, TickFold, TickJournals,
    TickPublish, DAY_MS,
};
pub use event::ShardEvent;
pub use merge::{merge_batches, merge_batches_lossy, MergeError};
pub use shard::{CrashPoint, CrashSignal, ShardBatch, ShardState, TickProbe};
pub use view::{auction_rng, PageView, SlotStep, ViewDecider, Viewer};
// The resilience substrate (fault plans, checkpoints), re-exported so
// engine callers can schedule faults and resume runs without depending on
// the crate directly.
pub use treads_resilience as resilience;
pub use treads_resilience::{EngineCheckpoint, FaultPlan, FaultReport};
// The observability substrate, re-exported so engine callers can name
// `Telemetry` and friends without depending on the crate directly.
pub use treads_telemetry as telemetry;
pub use treads_telemetry::Telemetry;

#[cfg(test)]
mod tests {
    use super::*;
    use adplatform::attributes::{AttributeCatalog, AttributeSource};
    use adplatform::auction::AuctionConfig;
    use adplatform::campaign::AdCreative;
    use adplatform::profile::Gender;
    use adplatform::targeting::{TargetingExpr, TargetingSpec};
    use adplatform::{Platform, PlatformConfig};
    use adsim_types::{Money, SimTime, SiteId, UserId};
    use std::collections::BTreeSet;
    use websim::{SessionConfig, SessionSchedule, SiteRegistry};

    /// A small platform: one advertiser, one everyone-targeted campaign
    /// with ample budget, `n` users, two sites (one carrying a pixel).
    fn scenario(n: u64) -> (Platform, SiteRegistry, Vec<UserId>, adsim_types::CampaignId) {
        let mut catalog = AttributeCatalog::new();
        catalog.register("Interest: coffee", AttributeSource::Platform, None, 0.3);
        let mut p = Platform::new(
            PlatformConfig {
                auction: AuctionConfig {
                    competitor_rate: 0.0,
                    ..AuctionConfig::default()
                },
                frequency_cap: 1_000,
                ..PlatformConfig::default()
            },
            catalog,
        );
        let adv = p.register_advertiser("adv");
        let acct = p.open_account(adv).expect("account");
        let camp = p
            .create_campaign(acct, "c", Money::dollars(5), None)
            .expect("campaign");
        p.submit_ad(
            camp,
            AdCreative::text("Hello", "World"),
            TargetingSpec::including(TargetingExpr::Everyone),
        )
        .expect("ad");
        let users: Vec<UserId> = (0..n)
            .map(|i| p.register_user(20 + (i % 50) as u8, Gender::Female, "Ohio", "43004"))
            .collect();
        let mut sites = SiteRegistry::new();
        sites.create("feed.example", 1);
        let with_pixel = sites.create("shop.example", 1);
        let pixel = p.create_pixel(acct, "shop pixel").expect("pixel");
        sites.embed_pixel(with_pixel, pixel);
        (p, sites, users, camp)
    }

    fn run(shards: usize, n: u64) -> (Platform, EngineOutcome) {
        let (mut p, sites, users, _camp) = scenario(n);
        let engine = Engine::new(EngineConfig {
            shards,
            session: SessionConfig {
                views_per_user_per_day: 4.0,
                days: 3,
            },
            seed: 7,
            ..EngineConfig::default()
        });
        let extension_users: BTreeSet<UserId> = users.iter().copied().collect();
        let outcome = engine.run(&mut p, &sites, &users, &extension_users);
        (p, outcome)
    }

    #[test]
    fn shard_tick_returns_its_events_sorted_by_key() {
        let (p, sites, users, _camp) = scenario(40);
        let mut shard = ShardState::new(
            0,
            &users,
            &BTreeSet::new(),
            &sites.ids(),
            &SessionConfig {
                views_per_user_per_day: 4.0,
                days: 1,
            },
            7,
            1_000,
        );
        let batch = shard.run_tick(
            &p,
            &p.billing.budget_snapshot(),
            &sites,
            SimTime(DAY_MS),
            TickProbe::off(),
        );
        // Users run one after another, so production order is by user,
        // not by time: the sort is what puts the batch in key order.
        let is_impression = |e: &ShardEvent| matches!(e, ShardEvent::Impression { .. });
        assert!(batch.events.iter().any(is_impression));
        assert!(!batch.events.iter().all(is_impression));
        assert!(batch.events.is_sorted_by_key(ShardEvent::key));
        let users_in_order: Vec<UserId> = batch.events.iter().map(ShardEvent::user).collect();
        assert!(!users_in_order.is_sorted(), "the tick interleaves users");
    }

    #[test]
    fn shard_tick_builds_one_match_set_per_active_user_per_tick() {
        let (p, _, users, _camp) = scenario(24);
        let mut sites = SiteRegistry::new();
        sites.create("two-slots.example", 2);
        let session = SessionConfig {
            views_per_user_per_day: 3.0,
            days: 1,
        };
        let mut shard = ShardState::new(
            0,
            &users,
            &BTreeSet::new(),
            &sites.ids(),
            &session,
            7,
            1_000,
        );
        let probe = TickProbe {
            record: true,
            ..TickProbe::off()
        };
        // Two ticks split the day at noon: every user has 3 page views,
        // some of them in each half.
        let mut active_in_both = 0;
        let mut starts = vec![0u64; users.len()];
        for tick_end in [DAY_MS / 2, DAY_MS] {
            let views: Vec<u64> = users
                .iter()
                .zip(&mut starts)
                .map(|(&u, start)| {
                    let n = SessionSchedule::generate_day_for_user(u, &sites.ids(), &session, 7, 0)
                        .iter()
                        .filter(|e| (*start..tick_end).contains(&e.at().millis()))
                        .count() as u64;
                    *start = tick_end;
                    n
                })
                .collect();
            let page_views: u64 = views.iter().sum();
            let active = views.iter().filter(|&&n| n > 0).count() as u64;
            active_in_both += active;
            let batch = shard.run_tick(
                &p,
                &p.billing.budget_snapshot(),
                &sites,
                SimTime(tick_end),
                probe,
            );
            assert_eq!(batch.page_views, page_views);
            assert_eq!(batch.stats.opportunities, 2 * page_views);
            assert!(active > 0 && page_views > active, "views repeat per user");
            assert_eq!(batch.telemetry.counter("targeting.match_sets"), active);
        }
        // A user active before and after noon is matched once per tick.
        assert!(active_in_both > users.len() as u64);
    }

    #[test]
    fn skip_tick_itemizes_exactly_what_the_tick_would_run() {
        let (p, sites, users, _camp) = scenario(16);
        let session = SessionConfig {
            views_per_user_per_day: 4.0,
            days: 2,
        };
        // Users also browse a site missing from the registry: both walks
        // consume those views without simulating or counting them.
        let mut site_ids = sites.ids();
        site_ids.push(SiteId(999));
        let shard = ShardState::new(0, &users, &BTreeSet::new(), &site_ids, &session, 7, 1_000);
        let (mut ran, mut skipped) = (shard.clone(), shard);
        let consumed =
            |s: &ShardState| -> u64 { s.export_cursors().users.iter().map(|c| c.cursor).sum() };
        let mut views = 0;
        for tick_end in [DAY_MS, 2 * DAY_MS] {
            let batch = ran.run_tick(
                &p,
                &p.billing.budget_snapshot(),
                &sites,
                SimTime(tick_end),
                TickProbe::off(),
            );
            let lost = skipped.skip_tick(&sites, SimTime(tick_end));
            let pixel_fires = batch
                .events
                .iter()
                .filter(|e| matches!(e, ShardEvent::PixelFire { .. }))
                .count() as u64;
            assert!(pixel_fires > 0, "the pixel site was browsed");
            assert_eq!(
                (lost.page_views, lost.opportunities, lost.pixel_fires),
                (batch.page_views, batch.stats.opportunities, pixel_fires)
            );
            assert_eq!(consumed(&ran), consumed(&skipped));
            views += batch.page_views;
        }
        assert!(consumed(&ran) > views, "unknown-site views were consumed");
    }

    #[test]
    fn engine_delivers_and_counts() {
        let (p, outcome) = run(1, 20);
        assert_eq!(outcome.report.users, 20);
        assert_eq!(outcome.report.ticks, 3);
        assert_eq!(outcome.report.page_views, 20 * 4 * 3);
        assert_eq!(outcome.report.opportunities, outcome.report.page_views);
        assert!(outcome.report.impressions > 0);
        assert_eq!(outcome.report.impressions, p.stats.won);
        assert_eq!(p.log.all().len() as u64, outcome.report.impressions);
        // Extension logs captured every delivered impression.
        let observed: u64 = outcome.extensions.values().map(|l| l.len() as u64).sum();
        assert_eq!(observed, outcome.report.impressions);
    }

    #[test]
    fn shard_counts_agree_exactly() {
        let (p1, o1) = run(1, 30);
        for shards in [2, 3, 8] {
            let (pn, on) = run(shards, 30);
            assert_eq!(o1.report.page_views, on.report.page_views);
            assert_eq!(o1.report.impressions, on.report.impressions);
            assert_eq!(o1.report.pixel_fires, on.report.pixel_fires);
            assert_eq!(p1.stats, pn.stats);
            // The impression log is byte-identical, order included.
            assert_eq!(p1.log.all(), pn.log.all());
            // And so are the observed-ad streams.
            for (u, log) in &o1.extensions {
                assert_eq!(log.observations(), on.extensions[u].observations());
            }
        }
    }

    #[test]
    fn instrumentation_does_not_perturb_the_simulation() {
        // The same scenario through run() and run_with_telemetry() on an
        // enabled handle must mutate the platform identically: telemetry
        // observes, it does not perturb (no RNG draws, no state feedback).
        let (mut p_plain, sites, users, _camp) = scenario(25);
        let (mut p_inst, _, _, _) = scenario(25);
        let config = EngineConfig {
            shards: 3,
            session: SessionConfig {
                views_per_user_per_day: 4.0,
                days: 3,
            },
            seed: 7,
            ..EngineConfig::default()
        };
        let extension_users: BTreeSet<UserId> = users.iter().copied().collect();
        let plain = Engine::new(config.clone()).run(&mut p_plain, &sites, &users, &extension_users);
        let mut telemetry = Telemetry::new();
        let inst = Engine::new(config).run_with_telemetry(
            &mut p_inst,
            &sites,
            &users,
            &extension_users,
            &mut telemetry,
        );
        assert_eq!(plain.report, inst.report);
        assert_eq!(p_plain.stats, p_inst.stats);
        assert_eq!(p_plain.log.all(), p_inst.log.all());
        for (u, log) in &plain.extensions {
            assert_eq!(log.observations(), inst.extensions[u].observations());
        }
        // The instrumented run actually recorded.
        assert_eq!(
            telemetry.metrics().counter("engine.impressions"),
            inst.report.impressions
        );
        assert_eq!(telemetry.metrics().counter("engine.ticks"), 3);
        assert_eq!(
            telemetry.metrics().counter("auction.won"),
            inst.report.impressions
        );
        assert!(telemetry.metrics().histogram("engine.tick_ns").is_some());
        assert!(telemetry.metrics().histogram("phase.auction_ns").is_some());
        assert!(!telemetry.flight().is_empty());
    }

    #[test]
    fn budget_is_respected_at_tick_granularity() {
        // A tiny budget: the engine may overshoot within one tick (budgets
        // freeze at tick start) but never keeps spending in later ticks.
        let (mut p, sites, users, camp) = scenario(10);
        // Shrink the campaign budget to two $1-CPM impressions ($0.002).
        p.campaigns.campaign_mut(camp).expect("campaign").budget = Some(Money::micros(2_000));
        let engine = Engine::new(EngineConfig {
            shards: 4,
            session: SessionConfig {
                views_per_user_per_day: 2.0,
                days: 10,
            },
            seed: 11,
            ..EngineConfig::default()
        });
        let outcome = engine.run(&mut p, &sites, &users, &BTreeSet::new());
        // The budget was actually reached…
        assert!(p.billing.campaign_spend(camp) >= Money::micros(2_000));
        // …and delivery then stopped: the budget crosses during day 2 (the
        // day-2 snapshot still showed headroom), so days 3..10 serve
        // nothing and most opportunities go undelivered.
        assert!(outcome.report.impressions > 0);
        assert!(outcome.report.impressions < outcome.report.opportunities / 2);
    }
}
