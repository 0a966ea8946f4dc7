//! Integration test: the serving front end is the batch engine, reshaped.
//!
//! DESIGN.md §12's contract: feed the serving stack the *same opportunity
//! stream* the batch engine simulates (each user's session substream,
//! flattened to arrivals by [`ArrivalSchedule::from_sessions`]) and every
//! durable output — invoices, the exact impression log, delivery stats,
//! extension logs — is byte-identical to `Engine::run`, at any shard
//! count and under any micro-batch composition. A property test drives
//! random workload shapes through 1, 2, and 8 serving shards against the
//! batch oracle; a separate test pins the other half of the contract:
//! a shed request is never billed.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;
use treads_repro::adplatform::attributes::{AttributeCatalog, AttributeSource};
use treads_repro::adplatform::billing::Invoice;
use treads_repro::adplatform::campaign::AdCreative;
use treads_repro::adplatform::delivery::DeliveryStats;
use treads_repro::adplatform::profile::Gender;
use treads_repro::adplatform::reporting::Impression;
use treads_repro::adplatform::targeting::{TargetingExpr, TargetingSpec};
use treads_repro::adplatform::{Platform, PlatformConfig, PlatformState};
use treads_repro::adsim_types::{CampaignId, Money, SimTime, UserId};
use treads_repro::engine::{Engine, EngineConfig, ResilienceOptions, DAY_MS};
use treads_repro::resilience::{FaultPlan, LedgerHead};
use treads_repro::serving::{OpportunityRequest, ServingConfig, ServingEngine};
use treads_repro::telemetry::Telemetry;
use treads_repro::websim::{ArrivalSchedule, ExtensionLog, SessionConfig, SiteRegistry};

/// Every durable output the equivalence contract covers.
#[derive(Debug, PartialEq)]
struct Footprint {
    invoice: Invoice,
    log: Vec<Impression>,
    stats: DeliveryStats,
    extensions: BTreeMap<UserId, ExtensionLog>,
}

struct Fixture {
    platform: Platform,
    sites: SiteRegistry,
    users: Vec<UserId>,
    extension_users: BTreeSet<UserId>,
    account: treads_repro::adsim_types::AccountId,
}

/// A small but fully-featured platform: one everyone-targeted campaign, a
/// pixel-carrying site, every user running the extension. Deterministic
/// in `(seed, population)`, so the oracle and each serving run rebuild it
/// identically.
fn fixture(seed: u64, population: u64) -> Fixture {
    let mut catalog = AttributeCatalog::new();
    catalog.register("Interest: coffee", AttributeSource::Platform, None, 0.3);
    let mut platform = Platform::new(
        PlatformConfig {
            seed,
            frequency_cap: 4,
            ..PlatformConfig::default()
        },
        catalog,
    );
    let adv = platform.register_advertiser("adv");
    let account = platform.open_account(adv).expect("account");
    let campaign = platform
        .create_campaign(account, "c", Money::dollars(25), None)
        .expect("campaign");
    platform
        .submit_ad(
            campaign,
            AdCreative::text("Hello", "World"),
            TargetingSpec::including(TargetingExpr::Everyone),
        )
        .expect("ad");
    let users: Vec<UserId> = (0..population)
        .map(|i| platform.register_user(20 + (i % 50) as u8, Gender::Female, "Ohio", "43004"))
        .collect();
    let mut sites = SiteRegistry::new();
    sites.create("feed.example", 2);
    let with_pixel = sites.create("shop.example", 1);
    let pixel = platform.create_pixel(account, "shop pixel").expect("pixel");
    sites.embed_pixel(with_pixel, pixel);
    let extension_users = users.iter().copied().collect();
    Fixture {
        platform,
        sites,
        users,
        extension_users,
        account,
    }
}

/// The batch oracle: `Engine::run` over the generated sessions.
fn batch_footprint(seed: u64, population: u64, session: SessionConfig) -> Footprint {
    let mut f = fixture(seed, population);
    let engine = Engine::new(EngineConfig {
        shards: 1,
        session,
        tick_ms: DAY_MS,
        seed,
        ..EngineConfig::default()
    });
    let outcome = engine.run(&mut f.platform, &f.sites, &f.users, &f.extension_users);
    Footprint {
        invoice: f.platform.invoice(f.account),
        log: f.platform.log.all().to_vec(),
        stats: f.platform.stats,
        extensions: outcome.extensions,
    }
}

/// The same workload offered request-by-request through the serving stack
/// at `shards` workers, with admission wide open (the watermark is about
/// wall-clock pressure, not simulated behaviour).
fn serving_footprint(
    seed: u64,
    population: u64,
    session: SessionConfig,
    shards: usize,
    max_batch: usize,
) -> Footprint {
    let mut f = fixture(seed, population);
    let arrivals = ArrivalSchedule::from_sessions(&f.users, &f.sites.ids(), &session, seed);
    let engine = ServingEngine::new(ServingConfig {
        shards,
        tick_ms: DAY_MS,
        horizon_ms: session.days * DAY_MS,
        seed,
        max_batch,
        max_delay: Duration::from_millis(1),
        queue_watermark: u64::MAX,
        retry_after_ms: 10,
        ..ServingConfig::default()
    });
    let (outcome, answered) =
        engine.serve(&mut f.platform, &f.sites, &f.extension_users, |frontend| {
            let tickets: Vec<_> = arrivals
                .arrivals()
                .iter()
                .map(|a| {
                    frontend.submit(OpportunityRequest {
                        user: a.user,
                        site: a.site,
                        at: a.at,
                    })
                })
                .collect();
            tickets
                .into_iter()
                .map(|t| t.wait())
                .filter(|r| r.is_served())
                .count()
        });
    assert_eq!(
        answered,
        arrivals.len(),
        "with admission wide open and no faults, nothing sheds"
    );
    assert_eq!(outcome.report.shed, 0);
    Footprint {
        invoice: f.platform.invoice(f.account),
        log: f.platform.log.all().to_vec(),
        stats: f.platform.stats,
        extensions: outcome.extensions,
    }
}

/// Everything a run leaves behind: the platform's whole exported state
/// (billing, global frequency counts, the impression log, the pixel
/// journal, audience memberships), the receipt ledger's heads and the
/// extension logs.
#[derive(Debug, PartialEq)]
struct FullFootprint {
    state: PlatformState,
    heads: Vec<LedgerHead>,
    extensions: BTreeMap<UserId, ExtensionLog>,
}

/// [`fixture`] plus what makes a tick decide from the one before it: a
/// retargeting campaign whose one ad targets the shop pixel's visitor
/// audience, and a broad campaign whose budget runs out mid-run. The
/// tight campaign outbids the retargeting one, which outbids the ample
/// one, so retargeting starts once the budget is spent. Returns the
/// retargeting and the tight campaign.
fn publishing_fixture(seed: u64, population: u64) -> (Fixture, [CampaignId; 2]) {
    let mut f = fixture(seed, population);
    let pixel = f
        .sites
        .ids()
        .into_iter()
        .find_map(|id| f.sites.get(id)?.pixels.first().copied())
        .expect("the shop site carries a pixel");
    let p = &mut f.platform;
    // Caps never bind, so only the budget stops the tight campaign.
    p.config.frequency_cap = 1_000;
    let audience = p
        .create_pixel_audience(f.account, pixel)
        .expect("pixel audience");
    let retarget = p
        .create_campaign(f.account, "retarget", Money::dollars(28), None)
        .expect("campaign");
    p.submit_ad(
        retarget,
        AdCreative::text("Welcome back", "Your cart is waiting"),
        TargetingSpec::including(TargetingExpr::InAudience(audience)),
    )
    .expect("ad");
    let tight = p
        .create_campaign(f.account, "tight", Money::dollars(30), Some(tight_budget()))
        .expect("campaign");
    p.submit_ad(
        tight,
        AdCreative::text("Limited", "While it lasts"),
        TargetingSpec::including(TargetingExpr::Everyone),
    )
    .expect("ad");
    (f, [retarget, tight])
}

/// The `tight` campaign's budget: more than its first day's spend, less
/// than its spend by the end of the second.
fn tight_budget() -> Money {
    Money::dollars(4)
}

/// The batch oracle over [`publishing_fixture`].
fn full_batch_footprint(seed: u64, population: u64, session: SessionConfig) -> FullFootprint {
    let (mut f, _) = publishing_fixture(seed, population);
    let engine = Engine::new(EngineConfig {
        shards: 1,
        session,
        tick_ms: DAY_MS,
        seed,
        ..EngineConfig::default()
    });
    let outcome = engine.run(&mut f.platform, &f.sites, &f.users, &f.extension_users);
    FullFootprint {
        state: f.platform.export_state(),
        heads: outcome.ledger.expect("the ledger is on").heads(),
        extensions: outcome.extensions,
    }
}

/// [`publishing_fixture`] offered request by request through the serving
/// stack, with admission wide open.
fn full_serving_footprint(
    seed: u64,
    population: u64,
    session: SessionConfig,
    shards: usize,
    max_batch: usize,
) -> FullFootprint {
    let (mut f, _) = publishing_fixture(seed, population);
    let arrivals = ArrivalSchedule::from_sessions(&f.users, &f.sites.ids(), &session, seed);
    let engine = ServingEngine::new(ServingConfig {
        shards,
        tick_ms: DAY_MS,
        horizon_ms: session.days * DAY_MS,
        seed,
        max_batch,
        max_delay: Duration::from_millis(1),
        queue_watermark: u64::MAX,
        retry_after_ms: 10,
        ..ServingConfig::default()
    });
    let (outcome, served) =
        engine.serve(&mut f.platform, &f.sites, &f.extension_users, |frontend| {
            let tickets: Vec<_> = arrivals
                .arrivals()
                .iter()
                .map(|a| {
                    frontend.submit(OpportunityRequest {
                        user: a.user,
                        site: a.site,
                        at: a.at,
                    })
                })
                .collect();
            tickets
                .into_iter()
                .map(|t| t.wait())
                .filter(|r| r.is_served())
                .count()
        });
    assert_eq!(served, arrivals.len(), "nothing sheds");
    FullFootprint {
        state: f.platform.export_state(),
        heads: outcome.ledger.expect("the ledger is on").heads(),
        extensions: outcome.extensions,
    }
}

/// What tick t folds must be what tick t+1 decides from: its charges (the
/// `tight` campaign stops winning once its spend crosses the budget) and
/// its pixel-audience joins (the retargeting ad reaches a shop visitor
/// from the tick after the visit). Serving must leave the batch oracle's
/// whole platform state, receipt heads and extension logs at every shard
/// count and micro-batch size.
#[test]
fn next_tick_decides_from_the_last_ticks_spend_and_audience_joins() {
    let session = SessionConfig {
        views_per_user_per_day: 2.0,
        days: 4,
    };
    let (seed, population) = (41, 32);
    let oracle = full_batch_footprint(seed, population, session);
    let [retarget, tight] = publishing_fixture(seed, population).1;
    let day = |at: SimTime| at.0 / DAY_MS;
    // The fixture exercises both halves. The tight campaign wins on days
    // 0 and 1, crossing its budget on day 1, and never after.
    let spent_through = |d| -> Money {
        oracle
            .state
            .impressions
            .iter()
            .filter(|imp| imp.campaign == tight && day(imp.at) <= d)
            .map(|imp| imp.price)
            .sum()
    };
    assert!(spent_through(0) < tight_budget() && tight_budget() <= spent_through(1));
    let tight_days: BTreeSet<_> = oracle
        .state
        .impressions
        .iter()
        .filter(|imp| imp.campaign == tight)
        .map(|imp| day(imp.at))
        .collect();
    assert_eq!(tight_days, BTreeSet::from([0, 1]));
    // The retargeting ad reaches each shop visitor only from the tick
    // after the visitor's first visit, and reaches some who first
    // visited on day 1 or later on the very next day.
    let mut first_visit = BTreeMap::new();
    for fire in &oracle.state.pixel_events {
        first_visit.entry(fire.user).or_insert(day(fire.at));
    }
    let retargeted: BTreeSet<_> = oracle
        .state
        .impressions
        .iter()
        .filter(|imp| imp.campaign == retarget)
        .map(|imp| (day(imp.at), first_visit[&imp.user]))
        .collect();
    assert!(retargeted.iter().all(|&(on, first)| on > first));
    assert!(retargeted
        .iter()
        .any(|&(on, first)| first >= 1 && on == first + 1));
    assert_eq!(oracle.state.clock_now, SimTime(session.days * DAY_MS));
    for shards in [1, 2, 8] {
        for max_batch in [1, 64] {
            let served = full_serving_footprint(seed, population, session, shards, max_batch);
            assert_eq!(
                oracle, served,
                "serving diverged at {shards} shards, max_batch {max_batch}"
            );
        }
    }
}

#[test]
fn serving_matches_batch_oracle_at_every_shard_count() {
    let session = SessionConfig {
        views_per_user_per_day: 8.0,
        days: 3,
    };
    let oracle = batch_footprint(31, 24, session);
    assert!(
        !oracle.log.is_empty(),
        "the oracle run must actually deliver ads"
    );
    for shards in [1, 2, 8] {
        let served = serving_footprint(31, 24, session, shards, 32);
        assert_eq!(oracle, served, "serving diverged at {shards} shards");
    }
}

#[test]
fn micro_batch_composition_never_changes_outcomes() {
    let session = SessionConfig {
        views_per_user_per_day: 6.0,
        days: 2,
    };
    let oracle = batch_footprint(77, 12, session);
    for max_batch in [1, 7, 256] {
        let served = serving_footprint(77, 12, session, 2, max_batch);
        assert_eq!(
            oracle, served,
            "batch size {max_batch} leaked into outcomes"
        );
    }
}

#[test]
fn shed_requests_are_never_billed() {
    let session = SessionConfig {
        views_per_user_per_day: 6.0,
        days: 2,
    };
    let seed = 13;
    let mut f = fixture(seed, 10);
    let arrivals = ArrivalSchedule::from_sessions(&f.users, &f.sites.ids(), &session, seed);
    assert!(arrivals.len() > 8, "need enough traffic to shed some");
    // Deterministically shed submissions 2..6 via a scheduled brownout —
    // admission shedding depends on wall-clock queue depth, so faults are
    // the reproducible way to force rejections.
    let options = ResilienceOptions {
        faults: FaultPlan::new().brownout(2, 4),
        ..ResilienceOptions::default()
    };
    let engine = ServingEngine::new(ServingConfig {
        shards: 2,
        tick_ms: DAY_MS,
        horizon_ms: session.days * DAY_MS,
        seed,
        queue_watermark: u64::MAX,
        ..ServingConfig::default()
    });
    let mut telemetry = Telemetry::disabled();
    let (outcome, responses) = engine.serve_with_telemetry(
        &mut f.platform,
        &f.sites,
        &f.extension_users,
        &options,
        &mut telemetry,
        |frontend| {
            let tickets: Vec<_> = arrivals
                .arrivals()
                .iter()
                .map(|a| {
                    frontend.submit(OpportunityRequest {
                        user: a.user,
                        site: a.site,
                        at: a.at,
                    })
                })
                .collect();
            tickets.into_iter().map(|t| t.wait()).collect::<Vec<_>>()
        },
    );
    assert_eq!(outcome.report.shed_brownout, 4);
    assert_eq!(outcome.report.shed, 4);
    // Billing covers exactly the ads on served pages: every impression in
    // the platform's log was handed to some answered request, and the
    // invoice's impression count agrees. Shed requests left no trace.
    let served_ads: u64 = responses
        .iter()
        .filter_map(|r| r.page())
        .map(|p| p.ads.len() as u64)
        .sum();
    assert_eq!(outcome.report.impressions, served_ads);
    assert_eq!(f.platform.log.all().len() as u64, served_ads);
    let invoice = f.platform.invoice(f.account);
    let billed: Money = f.platform.log.all().iter().map(|i| i.price).sum();
    assert_eq!(invoice.gross, billed, "the invoice bills the log, exactly");
    // And the extension logs (what users saw) agree with what was billed.
    let observed: u64 = outcome.extensions.values().map(|l| l.len() as u64).sum();
    assert_eq!(observed, served_ads);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random workload shapes: any seed, population, intensity, and
    /// horizon produce a serving run byte-identical to the batch oracle
    /// at 1, 2, and 8 shards.
    #[test]
    fn random_arrival_schedules_match_the_oracle(
        seed in 0u64..1_000,
        population in 6u64..16,
        views in 1.0f64..6.0,
        days in 1u64..3,
    ) {
        let session = SessionConfig { views_per_user_per_day: views, days };
        let oracle = batch_footprint(seed, population, session);
        for shards in [1usize, 2, 8] {
            let served = serving_footprint(seed, population, session, shards, 16);
            prop_assert_eq!(&oracle, &served, "serving diverged at {} shards", shards);
        }
    }
}
