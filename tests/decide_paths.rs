//! Integration test: the batch engine and the serving front end decide a
//! page view through one routine, so they report it alike.
//!
//! `tests/serving_equivalence.rs` pins the durable outputs (invoices, the
//! impression log, stats, extension logs). This file pins what the two
//! paths *say* about the same opportunity stream
//! ([`ArrivalSchedule::from_sessions`]):
//!
//! * **Targeting counters.** `targeting.compiled_evals` sums each slot's
//!   census count of compiled targeting checks; both paths report the
//!   same total.
//! * **Trace content.** At full sampling both paths retain the same trace
//!   ids, and each trace carries the same decision events in the same
//!   order. Serving's `Admitted` event (which shard the front end routed
//!   the request to) has no batch counterpart and is left out.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

use treads_repro::adplatform::attributes::{AttributeCatalog, AttributeSource};
use treads_repro::adplatform::campaign::AdCreative;
use treads_repro::adplatform::profile::Gender;
use treads_repro::adplatform::targeting::{TargetingExpr, TargetingSpec};
use treads_repro::adplatform::{Platform, PlatformConfig};
use treads_repro::adsim_types::{Money, UserId};
use treads_repro::engine::{Engine, EngineConfig, ResilienceOptions, DAY_MS};
use treads_repro::serving::{OpportunityRequest, ServingConfig, ServingEngine};
use treads_repro::telemetry::{SloTarget, Telemetry, TraceConfig, TraceEventKind, TraceId};
use treads_repro::websim::{ArrivalSchedule, SessionConfig, SiteRegistry};

const SEED: u64 = 61;
const SHARDS: usize = 2;
const POPULATION: u64 = 18;
const SESSION: SessionConfig = SessionConfig {
    views_per_user_per_day: 6.0,
    days: 2,
};

struct Fixture {
    platform: Platform,
    sites: SiteRegistry,
    users: Vec<UserId>,
    extension_users: BTreeSet<UserId>,
}

/// Two campaigns, so slots see both targeting outcomes: one ad targets
/// everyone, one targets an attribute held by every third user. A pixel
/// site and half the users running the extension exercise the pixel and
/// extension-log branches of the decide.
fn fixture() -> Fixture {
    let mut catalog = AttributeCatalog::new();
    let coffee = catalog.register("Interest: coffee", AttributeSource::Platform, None, 0.3);
    let mut platform = Platform::new(
        PlatformConfig {
            seed: SEED,
            frequency_cap: 3,
            ..PlatformConfig::default()
        },
        catalog,
    );
    let adv = platform.register_advertiser("adv");
    let account = platform.open_account(adv).expect("account");
    let broad = platform
        .create_campaign(account, "broad", Money::dollars(5), None)
        .expect("campaign");
    platform
        .submit_ad(
            broad,
            AdCreative::text("Hello", "World"),
            TargetingSpec::including(TargetingExpr::Everyone),
        )
        .expect("ad");
    let narrow = platform
        .create_campaign(account, "narrow", Money::dollars(20), None)
        .expect("campaign");
    platform
        .submit_ad(
            narrow,
            AdCreative::text("Coffee", "Beans"),
            TargetingSpec::including(TargetingExpr::Attr(coffee)),
        )
        .expect("ad");
    let users: Vec<UserId> = (0..POPULATION)
        .map(|i| platform.register_user(20 + (i % 50) as u8, Gender::Female, "Ohio", "43004"))
        .collect();
    for user in users.iter().step_by(3) {
        platform
            .profiles
            .grant_attribute(*user, coffee)
            .expect("grant");
    }
    let mut sites = SiteRegistry::new();
    sites.create("feed.example", 2);
    let with_pixel = sites.create("shop.example", 1);
    let pixel = platform.create_pixel(account, "shop pixel").expect("pixel");
    sites.embed_pixel(with_pixel, pixel);
    let extension_users = users.iter().step_by(2).copied().collect();
    Fixture {
        platform,
        sites,
        users,
        extension_users,
    }
}

/// A full-sampling telemetry handle.
fn full_telemetry() -> Telemetry {
    let mut t = Telemetry::new();
    t.set_trace_config(TraceConfig::full());
    t
}

/// The batch engine over the fixture's sessions.
fn batch_telemetry() -> Telemetry {
    let mut f = fixture();
    let engine = Engine::new(EngineConfig {
        shards: SHARDS,
        session: SESSION,
        tick_ms: DAY_MS,
        seed: SEED,
        ..EngineConfig::default()
    });
    let mut telemetry = full_telemetry();
    engine.run_with_telemetry(
        &mut f.platform,
        &f.sites,
        &f.users,
        &f.extension_users,
        &mut telemetry,
    );
    telemetry
}

/// The serving front end over the same opportunity stream, with admission
/// wide open and an SLO no window can breach (a breach would add
/// tail-retention events that depend on wall-clock latency).
fn serving_telemetry() -> Telemetry {
    let mut f = fixture();
    let arrivals = ArrivalSchedule::from_sessions(&f.users, &f.sites.ids(), &SESSION, SEED);
    let engine = ServingEngine::new(ServingConfig {
        shards: SHARDS,
        tick_ms: DAY_MS,
        horizon_ms: SESSION.days * DAY_MS,
        seed: SEED,
        max_batch: 16,
        max_delay: Duration::from_millis(1),
        queue_watermark: u64::MAX,
        slo: SloTarget {
            quantile: 0.99,
            target_ns: u64::MAX,
        },
        trace: TraceConfig::full(),
        ..ServingConfig::default()
    });
    let mut telemetry = full_telemetry();
    let (outcome, _) = engine.serve_with_telemetry(
        &mut f.platform,
        &f.sites,
        &f.extension_users,
        &ResilienceOptions::default(),
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
            for t in tickets {
                t.wait();
            }
        },
    );
    assert_eq!(outcome.report.shed, 0, "nothing sheds with admission open");
    telemetry
}

#[test]
fn batch_and_serving_count_the_same_compiled_evals() {
    let batch = batch_telemetry();
    let serving = serving_telemetry();
    let evals = |t: &Telemetry| t.metrics().counter("targeting.compiled_evals");
    assert!(
        evals(&batch) > 0,
        "every slot runs compiled targeting programs"
    );
    assert_eq!(evals(&batch), evals(&serving));
    // The stream really is the same one on both paths.
    let views = |t: &Telemetry| t.metrics().counter("engine.page_views");
    assert_eq!(views(&batch), views(&serving));
}

#[test]
fn batch_and_serving_traces_carry_the_same_decisions() {
    let decisions = |t: &Telemetry| -> BTreeMap<TraceId, Vec<TraceEventKind>> {
        t.traces()
            .iter()
            .map(|trace| {
                let kinds = trace
                    .events
                    .iter()
                    .map(|e| e.kind.clone())
                    .filter(|k| !matches!(k, TraceEventKind::Admitted { .. }))
                    .collect();
                (trace.id, kinds)
            })
            .collect()
    };
    let batch = decisions(&batch_telemetry());
    let serving = decisions(&serving_telemetry());
    assert!(
        batch.len() < 4096,
        "the workload must fit the trace collector so nothing is evicted"
    );
    assert!(
        batch
            .values()
            .flatten()
            .any(|k| matches!(k, TraceEventKind::Billed { .. })),
        "the run must deliver ads"
    );
    assert_eq!(
        batch.keys().collect::<Vec<_>>(),
        serving.keys().collect::<Vec<_>>(),
        "both paths retain the same trace ids"
    );
    for (id, events) in &batch {
        assert_eq!(
            Some(events),
            serving.get(id),
            "trace {id:?} carries different decisions"
        );
    }
}
