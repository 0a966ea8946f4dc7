//! Targeting-evaluator micro-bench: the hot predicate of the delivery
//! contract. Evaluated once per (eligible ad × impression opportunity), so
//! its cost bounds platform throughput.
//!
//! `targeting/index_select` times the candidate selection that precedes
//! it, the layer the repository benchmark traces as
//! `adplatform.index.select_ns`.

use adplatform::attributes::AttributeCatalog;
use adplatform::audience::AudienceStore;
use adplatform::campaign::{AdCreative, CampaignStore};
use adplatform::compiled::ProgramArena;
use adplatform::dsl;
use adplatform::index::CountingBuffer;
use adplatform::profile::{Gender, ProfileStore, UserProfile};
use adplatform::targeting::{TargetingExpr, TargetingSpec};
use adsim_types::{AccountId, AdId, AttributeId, AudienceId, Money};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_expression_shapes(c: &mut Criterion) {
    let mut profiles = ProfileStore::new();
    let user = profiles.register(33, Gender::Female, "Ohio", "43004");
    for i in 0..120u64 {
        profiles
            .grant_attribute(user, AttributeId(i))
            .expect("user");
    }
    let profile = profiles.get(user).expect("user").clone();
    let audiences = AudienceStore::new(20, 1000, 100);

    let mut group = c.benchmark_group("targeting/matches");
    let single = TargetingSpec::including(TargetingExpr::Attr(AttributeId(50)));
    group.bench_function("single_attr", |b| {
        b.iter(|| black_box(&single).matches(black_box(&profile), &audiences))
    });

    // The paper's Chicago-millennials conjunction shape.
    let conjunction = TargetingSpec::including(TargetingExpr::And(vec![
        TargetingExpr::AgeRange { min: 24, max: 39 },
        TargetingExpr::InZip("43004".into()),
        TargetingExpr::Attr(AttributeId(10)),
        TargetingExpr::Attr(AttributeId(11)),
        TargetingExpr::Not(Box::new(TargetingExpr::Attr(AttributeId(999)))),
    ]));
    group.bench_function("paper_conjunction", |b| {
        b.iter(|| black_box(&conjunction).matches(black_box(&profile), &audiences))
    });

    // Wide OR: the bit-slice Tread shape over a 507-member group.
    for width in [9usize, 254] {
        let or = TargetingSpec::including(TargetingExpr::And(vec![
            TargetingExpr::InAudience(AudienceId(1)),
            TargetingExpr::Or(
                (0..width as u64)
                    .map(|i| TargetingExpr::Attr(AttributeId(1000 + i)))
                    .collect(),
            ),
        ]));
        group.bench_with_input(BenchmarkId::new("bit_slice_or", width), &or, |b, or| {
            b.iter(|| black_box(or).matches(black_box(&profile), &audiences))
        });
    }

    // Exclusion spec (the LacksAttribute Tread shape).
    let exclusion = TargetingSpec::including_excluding(
        TargetingExpr::InAudience(AudienceId(1)),
        TargetingExpr::Attr(AttributeId(50)),
    );
    group.bench_function("exclusion", |b| {
        b.iter(|| black_box(&exclusion).matches(black_box(&profile), &audiences))
    });
    group.finish();
}

/// Tree walker vs compiled program on the same (spec, profile) pairs,
/// crossed over expression depth and profile size. The compiled numbers
/// are what the delivery hot path pays per (ad × opportunity); the tree
/// numbers are the oracle it replaced.
fn bench_eval_modes(c: &mut Criterion) {
    let mut profiles = ProfileStore::new();
    let slim = profiles.register(29, Gender::Female, "Ohio", "43004");
    profiles
        .grant_attribute(slim, AttributeId(7))
        .expect("slim");
    profiles.record_zip_visit(slim, "60601").expect("slim");
    let fat = profiles.register(41, Gender::Male, "Ohio", "43004");
    for i in 0..120u64 {
        profiles.grant_attribute(fat, AttributeId(i)).expect("fat");
    }
    for i in 0..40u64 {
        profiles
            .record_zip_visit(fat, &format!("{:05}", 20_000 + i))
            .expect("fat");
    }
    let audiences = AudienceStore::new(20, 1000, 100);

    // Shallow: the paper's conjunction shape (one level of And).
    let shallow = TargetingSpec::including(TargetingExpr::And(vec![
        TargetingExpr::AgeRange { min: 24, max: 45 },
        TargetingExpr::InZip("43004".into()),
        TargetingExpr::Attr(AttributeId(10)),
        TargetingExpr::Not(Box::new(TargetingExpr::Attr(AttributeId(999)))),
    ]));
    // Deep: the E17 sweep shape — nested connectives over string-keyed
    // leaves (state names, visited ZIPs), the tree walker's worst case.
    let deep = TargetingSpec::including_excluding(
        TargetingExpr::And(vec![
            TargetingExpr::Or(vec![
                TargetingExpr::InState("Ohio".into()),
                TargetingExpr::InState("Texas".into()),
                TargetingExpr::InZip("43004".into()),
            ]),
            TargetingExpr::Or(
                (0..6)
                    .map(|k| TargetingExpr::VisitedZip(format!("{:05}", 20_000 + k * 5)))
                    .collect(),
            ),
            TargetingExpr::AgeRange { min: 18, max: 64 },
            TargetingExpr::Attr(AttributeId(10)),
        ]),
        TargetingExpr::VisitedZip("99999".into()),
    );
    // Wide: a 254-arm Or that misses every arm (full scan, no early out).
    let wide = TargetingSpec::including(TargetingExpr::Or(
        (0..254u64)
            .map(|i| TargetingExpr::Attr(AttributeId(1000 + i)))
            .collect(),
    ));

    let mut group = c.benchmark_group("targeting/eval_mode");
    for (shape, spec) in [("shallow", &shallow), ("deep", &deep), ("wide_or", &wide)] {
        let mut program = ProgramArena::new();
        program.push(spec, profiles.symbols_mut());
        for (size, user) in [("slim", slim), ("fat", fat)] {
            let profile = profiles.get(user).expect("user").clone();
            group.bench_with_input(
                BenchmarkId::new(format!("tree/{shape}"), size),
                &profile,
                |b, profile| b.iter(|| black_box(spec).matches(black_box(profile), &audiences)),
            );
            group.bench_with_input(
                BenchmarkId::new(format!("compiled/{shape}"), size),
                &profile,
                |b, profile| {
                    b.iter(|| black_box(&program).matches(0, black_box(profile), &audiences))
                },
            );
        }
    }
    group.finish();
}

fn bench_dsl(c: &mut Criterion) {
    let partner = treads_broker::PartnerCatalog::us();
    let catalog = AttributeCatalog::us_2018(&partner);
    let src = "age 24-39 AND zip:60601 AND attr:'Interest: musicals (Music)' \
               AND NOT attr:'Relationship: in a relationship' \
               OR (radius:42.36,-71.06,25 AND gender:female)";
    let mut group = c.benchmark_group("targeting/dsl");
    group.bench_function("parse_paper_expression", |b| {
        b.iter(|| dsl::parse(black_box(src), black_box(&catalog)).expect("parses"))
    });
    let expr = dsl::parse(src, &catalog).expect("parses");
    group.bench_function("render", |b| {
        b.iter(|| dsl::render(black_box(&expr), black_box(&catalog)))
    });
    group.finish();
}

/// A ZIP of the inventory shape's pool (`pool` ZIPs from 20000).
fn pool_zip(n: u64, pool: u64) -> String {
    format!("{:05}", 20_000 + n % pool)
}

/// The `batch-inventory` workload's platform, without the platform: 2,000
/// ads of three conjunct groups (geo, six visited ZIPs, one of 50
/// attributes) around an age range, and 300 users with a home state and
/// ZIP, 12 attributes and 24 visited ZIPs each.
fn inventory_shape() -> (CampaignStore, ProfileStore) {
    const STATES: [&str; 4] = ["Ohio", "Texas", "California", "Pennsylvania"];
    let (ads, pool) = (2_000u64, 1_000u64);
    let mut campaigns = CampaignStore::new();
    let mut profiles = ProfileStore::new();
    let camp = campaigns.create_campaign(AccountId(1), "inventory", Money::dollars(3), None);
    for j in 0..ads {
        let spec = TargetingSpec::including_excluding(
            TargetingExpr::And(vec![
                TargetingExpr::Or(vec![
                    TargetingExpr::InState(STATES[(j % 4) as usize].into()),
                    TargetingExpr::InState(STATES[((j + 1) % 4) as usize].into()),
                    TargetingExpr::InZip(pool_zip(j * 3, pool)),
                ]),
                TargetingExpr::Or(
                    (0..6)
                        .map(|k| TargetingExpr::VisitedZip(pool_zip(j * 5 + k, pool)))
                        .collect(),
                ),
                TargetingExpr::AgeRange {
                    min: 18,
                    max: 18 + (j % 55 + 5) as u8,
                },
                TargetingExpr::Attr(AttributeId(j % 50 + 1)),
            ]),
            TargetingExpr::VisitedZip(pool_zip(j * 11 + 7, pool)),
        );
        campaigns
            .create_ad(
                camp,
                AdCreative::text("inventory", "ad"),
                spec,
                profiles.symbols_mut(),
            )
            .expect("ad");
    }
    for i in 0..300u64 {
        let id = profiles.register(
            18 + (i % 60) as u8,
            Gender::Female,
            STATES[(i % 4) as usize],
            &pool_zip(i, pool),
        );
        for k in 0..12 {
            profiles
                .grant_attribute(id, AttributeId((i * 7 + k * 5 + 3) % 50 + 1))
                .expect("grant");
        }
        for k in 0..24 {
            profiles
                .record_zip_visit(id, &pool_zip(i * 13 + k * 3, pool))
                .expect("visit");
        }
    }
    (campaigns, profiles)
}

/// E16's ad-count sweep at 10k ads: one attribute group each over 50
/// attributes, and 300 users holding three attributes each.
fn one_group_shape() -> (CampaignStore, ProfileStore) {
    let mut campaigns = CampaignStore::new();
    let mut profiles = ProfileStore::new();
    let camp = campaigns.create_campaign(AccountId(1), "sweep", Money::dollars(3), None);
    for j in 0..10_000u64 {
        campaigns
            .create_ad(
                camp,
                AdCreative::text("sweep", "ad"),
                TargetingSpec::including(TargetingExpr::Attr(AttributeId(j % 50 + 1))),
                profiles.symbols_mut(),
            )
            .expect("ad");
    }
    for i in 0..300u64 {
        let id = profiles.register(30, Gender::Female, "Ohio", "43004");
        for k in [i % 50, (i * 7 + 3) % 50, (i * 13 + 11) % 50] {
            profiles
                .grant_attribute(id, AttributeId(k + 1))
                .expect("grant");
        }
    }
    (campaigns, profiles)
}

/// Index candidate selection on a reused counting buffer, one user after
/// another, as a stage-1 build calls it.
fn bench_index_select(c: &mut Criterion) {
    let audiences = AudienceStore::new(20, 1000, 100);
    let mut group = c.benchmark_group("targeting/index_select");
    for (name, (campaigns, profiles)) in [
        ("inventory_2k_ads", inventory_shape()),
        ("one_group_10k_ads", one_group_shape()),
    ] {
        let users: Vec<&UserProfile> = profiles.iter().collect();
        let index = campaigns.index();
        let mut counts = CountingBuffer::default();
        let mut out: Vec<AdId> = Vec::new();
        let mut next = 0;
        group.bench_function(name, |b| {
            b.iter(|| {
                let user = users[next % users.len()];
                next += 1;
                index.candidates_with(black_box(user), &audiences, &mut counts, &mut out);
                out.len()
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_expression_shapes,
    bench_eval_modes,
    bench_dsl,
    bench_index_select
);
criterion_main!(benches);
