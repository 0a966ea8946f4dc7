//! Engine bench: the sharded parallel engine end to end — session
//! generation, parallel shard ticks, and the deterministic merge — on a
//! small delivery-heavy population, at one and four shards; and the
//! tick fold alone (`engine/fold_tick`), the largest layer of serving's
//! tick-close barrier.

use adplatform::campaign::AdCreative;
use adplatform::delivery::PendingImpression;
use adplatform::profile::Gender;
use adplatform::targeting::{TargetingExpr, TargetingSpec};
use adplatform::{Platform, PlatformConfig};
use adsim_types::{Money, SimTime, UserId};
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use std::collections::BTreeSet;
use treads_engine::resilience::ReceiptLedger;
use treads_engine::{fold_tick_events, Engine, EngineConfig, ShardEvent, Telemetry, DAY_MS};
use websim::{SessionConfig, SiteRegistry};

const USERS: u64 = 2_000;

fn build() -> (Platform, SiteRegistry, Vec<UserId>) {
    let mut p = Platform::us_2018(PlatformConfig::facebook_like(42));
    let adv = p.register_advertiser("bench-advertiser");
    let acct = p.open_account(adv).expect("account");
    let camp = p
        .create_campaign(acct, "bench", Money::dollars(3), None)
        .expect("campaign");
    p.submit_ad(
        camp,
        AdCreative::text("bench", "engine bench workload"),
        TargetingSpec::including(TargetingExpr::Everyone),
    )
    .expect("ad");
    let users: Vec<UserId> = (0..USERS)
        .map(|i| p.register_user(18 + (i % 60) as u8, Gender::Female, "Ohio", "43004"))
        .collect();
    let mut sites = SiteRegistry::new();
    sites.create("feed.example", 2);
    (p, sites, users)
}

fn bench_engine_run(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/run");
    group.sample_size(10);
    group.throughput(Throughput::Elements(USERS));
    for shards in [1usize, 4] {
        group.bench_function(format!("{USERS}_users_{shards}_shards"), |b| {
            b.iter(|| {
                let (mut p, sites, users) = build();
                let engine = Engine::new(EngineConfig {
                    shards,
                    session: SessionConfig {
                        views_per_user_per_day: 2.0,
                        days: 1,
                    },
                    seed: 42,
                    ..EngineConfig::default()
                });
                black_box(engine.run(&mut p, &sites, &users, &BTreeSet::new()))
            })
        });
    }
    group.finish();
}

/// Users, pixel fires and impressions of one `serve-open`-shaped tick.
const FOLD_USERS: u64 = 100_000;
const FOLD_FIRES: u64 = 6_000;
const FOLD_IMPRESSIONS: u64 = 17_000;

/// A 100k-user platform with one pixel feeding a pixel audience and two
/// campaigns, plus one canonically merged tick over it: ~6k pixel fires
/// and ~17k impressions spread across the users and the day.
fn fold_tick_input() -> (Platform, Vec<ShardEvent>) {
    let mut p = Platform::us_2018(PlatformConfig::facebook_like(42));
    let adv = p.register_advertiser("bench-advertiser");
    let acct = p.open_account(adv).expect("account");
    let pixel = p.create_pixel(acct, "opt-in page").expect("pixel");
    p.create_pixel_audience(acct, pixel).expect("audience");
    let ads: Vec<_> = (0..2)
        .map(|_| {
            let camp = p
                .create_campaign(acct, "bench", Money::dollars(3), None)
                .expect("campaign");
            let ad = p
                .submit_ad(
                    camp,
                    AdCreative::text("bench", "fold bench workload"),
                    TargetingSpec::including(TargetingExpr::Everyone),
                )
                .expect("ad");
            (camp, ad)
        })
        .collect();
    for i in 0..FOLD_USERS {
        p.register_user(18 + (i % 60) as u8, Gender::Female, "Ohio", "43004");
    }
    let views = FOLD_IMPRESSIONS;
    let mut events = Vec::with_capacity((FOLD_FIRES + FOLD_IMPRESSIONS) as usize);
    for view in 0..views {
        let at = SimTime(view * (DAY_MS / views));
        let user = UserId(1 + view.wrapping_mul(0x9e37_79b9) % FOLD_USERS);
        if view % (views / FOLD_FIRES + 1) == 0 {
            events.push(ShardEvent::PixelFire {
                at,
                user,
                user_seq: 0,
                pixel,
            });
        }
        let (campaign, ad) = ads[(view % 2) as usize];
        events.push(ShardEvent::Impression {
            at,
            user,
            user_seq: 1,
            pending: PendingImpression {
                ad,
                campaign,
                account: acct,
                user,
                at,
                clearing_cpm: Money::dollars(2),
                spec_digest: ad.raw(),
            },
        });
    }
    (p, events)
}

/// One tick's fold with the receipt ledger on. Each iteration folds the
/// same tick again (a copy of its events, as the fold consumes them),
/// after emptying the impression log and pixel journal so memory stays
/// flat; billing, frequency and audience stores keep their keys.
fn bench_fold_tick(c: &mut Criterion) {
    let (mut p, events) = fold_tick_input();
    let mut group = c.benchmark_group("engine/fold_tick");
    group.throughput(Throughput::Elements(events.len() as u64));
    group.bench_function("serve_open_tick", |b| {
        let mut telemetry = Telemetry::disabled();
        let mut exhausted = BTreeSet::new();
        let mut ledger = ReceiptLedger::commitment_only(42, DAY_MS);
        b.iter(|| {
            p.log.restore(Vec::new());
            p.pixels.restore_events(Vec::new());
            black_box(fold_tick_events(
                &mut p,
                events.clone(),
                SimTime(DAY_MS),
                &mut telemetry,
                &mut exhausted,
                Some(&mut ledger),
            ))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_engine_run, bench_fold_tick);
criterion_main!(benches);
