//! Integration test: indexed candidate selection is **output-equivalent**
//! to the linear scan, at every shard count and through a resume.
//!
//! The counting targeting index (`adplatform::index`) must be a pure
//! optimization: switching `SelectionMode` can never change a platform
//! output, because the candidate set is a superset of the matching ads
//! returned in the same canonical ad-id order, and auction RNG draws do
//! not depend on the bid set. This test drives whole engine runs —
//! random extra campaigns layered over a Tread campaign plan, random
//! profile mutations — under every (shards ∈ {1, 2, 8}) ×
//! (mode ∈ {Indexed, LinearScan}) combination and requires byte-identical
//! invoices, ad reports, and decoded Tread sets. Postings key on interned
//! symbols, so a run of multi-group ads checkpointed mid-flight and
//! resumed on a fresh host must match too. An inventory of a few hundred
//! ads over a handful of keys makes long lists, which the index stores as
//! dense rows, and must match the scan impression for impression.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use treads_repro::adplatform::billing::Invoice;
use treads_repro::adplatform::campaign::AdCreative;
use treads_repro::adplatform::index::SelectionMode;
use treads_repro::adplatform::reporting::{AdReport, Impression};
use treads_repro::adplatform::targeting::{TargetingExpr, TargetingSpec};
use treads_repro::adsim_types::{AccountId, AttributeId, Money, UserId};
use treads_repro::engine::resilience::CheckpointFrame;
use treads_repro::engine::{Engine, EngineCheckpoint, EngineConfig, ResilienceOptions};
use treads_repro::treads::encoding::Encoding;
use treads_repro::treads::planner::CampaignPlan;
use treads_repro::treads::provider::RunReceipt;
use treads_repro::treads::TreadClient;
use treads_repro::websim::{ExtensionLog, SessionConfig, SiteRegistry};
use treads_repro::workload::CohortScenario;

const SEED: u64 = 47;
const POPULATION: usize = 48;
const OPTIN: usize = 16;

/// A proptest-generated extra ad: `(shape, a, b)` where `shape` selects
/// the targeting structure and `a`/`b` fill in its parameters. Shapes
/// deliberately cover every key class (attribute, zip, visited-zip,
/// state), an ad with several conjunct groups, and every structure that
/// forms no group (Everyone, Not, exclude).
type ExtraAd = (u8, u64, u64);

/// A proptest-generated profile mutation: `(user index, attribute, zip)`
/// — the user gains an attribute and a recent-location observation
/// before the run starts.
type Mutation = (usize, u64, u64);

fn attr(n: u64) -> TargetingExpr {
    TargetingExpr::Attr(AttributeId(n % 40 + 1))
}

fn zip(n: u64) -> String {
    format!("{:05}", 10_000 + n % 20)
}

fn targeting_of(&(shape, a, b): &ExtraAd) -> TargetingSpec {
    match shape % 10 {
        0 => TargetingSpec::including(TargetingExpr::Everyone),
        1 => TargetingSpec::including(attr(a)),
        2 => TargetingSpec::including(TargetingExpr::And(vec![
            attr(a),
            TargetingExpr::AgeRange {
                min: 18 + (b % 30) as u8,
                max: 80,
            },
        ])),
        3 => TargetingSpec::including(TargetingExpr::InState(
            ["Ohio", "Texas", "California"][(a % 3) as usize].into(),
        )),
        4 => TargetingSpec::including(TargetingExpr::VisitedZip(zip(a))),
        5 => TargetingSpec::including(TargetingExpr::InZip(zip(a))),
        6 => TargetingSpec::including(TargetingExpr::Or(vec![attr(a), attr(b)])),
        7 => TargetingSpec::including(TargetingExpr::Not(Box::new(attr(a)))),
        8 => TargetingSpec::including_excluding(attr(a), attr(b)),
        // Three groups: a visited ZIP, an attribute, and a geo `Or` that
        // a visit to zip(b) also satisfies, so profile mutations can
        // complete it.
        _ => TargetingSpec::including(TargetingExpr::And(vec![
            TargetingExpr::Or(vec![
                TargetingExpr::VisitedZip(zip(a)),
                TargetingExpr::VisitedZip(zip(b)),
            ]),
            attr(a),
            TargetingExpr::Or(vec![
                TargetingExpr::InState("Ohio".into()),
                TargetingExpr::InZip(zip(b)),
                TargetingExpr::VisitedZip(zip(b)),
            ]),
        ])),
    }
}

/// The outputs the equivalence covers: invoices, ad reports, decoded
/// Tread sets, and the number of impressions delivered.
type Outputs = (
    Vec<Invoice>,
    Vec<AdReport>,
    BTreeMap<UserId, BTreeSet<String>>,
    u64,
);

/// A host built from scratch (scenario setup is itself
/// seed-deterministic), with the given extra campaigns and profile
/// mutations layered on, selecting candidates under `mode`.
struct Host {
    s: CohortScenario,
    receipt: RunReceipt,
    /// The account owning the extra ads.
    extra_account: AccountId,
    sites: SiteRegistry,
    extension_users: BTreeSet<UserId>,
}

fn host(mode: SelectionMode, extra: &[ExtraAd], mutations: &[Mutation]) -> Host {
    let mut s = CohortScenario::setup(SEED, POPULATION, OPTIN);
    let names: Vec<String> = s
        .platform
        .attributes
        .partner_attributes()
        .iter()
        .take(8)
        .map(|d| d.name.clone())
        .collect();
    let plan = CampaignPlan::binary_in_ad("idx", &names, Encoding::CodebookToken);
    let receipt = s
        .provider
        .run_plan(&mut s.platform, &plan, s.optin_audience)
        .expect("plan runs");

    let adv = s.platform.register_advertiser("equivalence-adv");
    let acct = s.platform.open_account(adv).expect("account");
    let camp = s
        .platform
        .create_campaign(acct, "extra", Money::dollars(3), None)
        .expect("campaign");
    for (j, e) in extra.iter().enumerate() {
        s.platform
            .submit_ad(
                camp,
                AdCreative::text(format!("extra {j}"), "equivalence workload"),
                targeting_of(e),
            )
            .expect("extra ad");
    }
    for &(ix, a, z) in mutations {
        let user = s.users[ix % s.users.len()];
        s.platform
            .profiles
            .grant_attribute(user, AttributeId(a % 40 + 1))
            .expect("grant");
        s.platform
            .profiles
            .record_zip_visit(user, &zip(z))
            .expect("visit");
    }
    s.platform.campaigns.set_selection_mode(mode);

    let mut sites = SiteRegistry::new();
    sites.create("feed.example", 2);
    let extension_users = s.opted_in.iter().copied().collect();
    Host {
        s,
        receipt,
        extra_account: acct,
        sites,
        extension_users,
    }
}

fn engine(shards: usize) -> Engine {
    Engine::new(EngineConfig {
        shards,
        session: SessionConfig {
            views_per_user_per_day: 4.0,
            days: 3,
        },
        seed: SEED,
        ..EngineConfig::default()
    })
}

/// The outputs of a finished run on `h`.
fn outputs(h: &Host, extensions: &BTreeMap<UserId, ExtensionLog>, impressions: u64) -> Outputs {
    let mut accounts = h.s.provider.accounts.clone();
    accounts.push(h.extra_account);
    let invoices = accounts.iter().map(|&a| h.s.platform.invoice(a)).collect();
    let reports = h
        .receipt
        .placed
        .iter()
        .filter(|p| p.approved)
        .map(|p| {
            h.s.platform
                .ad_report(h.receipt.account, p.ad)
                .expect("placed ad reports")
        })
        .collect();
    let client = TreadClient::new(h.s.provider.codebook.clone(), &h.s.platform.attributes);
    let reveals = extensions
        .iter()
        .map(|(&u, log)| (u, client.decode_log(log, |_| None).has))
        .collect();
    (invoices, reports, reveals, impressions)
}

/// One full engine run, executed at `shards` under `mode`.
fn run(shards: usize, mode: SelectionMode, extra: &[ExtraAd], mutations: &[Mutation]) -> Outputs {
    let mut h = host(mode, extra, mutations);
    let outcome = engine(shards).run(&mut h.s.platform, &h.sites, &h.s.users, &h.extension_users);
    outputs(&h, &outcome.extensions, outcome.report.impressions)
}

/// One supervised run checkpointing after every tick: cold, or resumed
/// from `resume` on the freshly built host. Returns the outputs and the
/// encoded checkpoints the run took.
fn resilient_run(
    shards: usize,
    mode: SelectionMode,
    extra: &[ExtraAd],
    mutations: &[Mutation],
    resume: Option<&EngineCheckpoint>,
) -> (Outputs, Vec<Vec<u8>>) {
    let mut h = host(mode, extra, mutations);
    let options = ResilienceOptions {
        checkpoint_every_ticks: 1,
        ..ResilienceOptions::default()
    };
    let engine = engine(shards);
    let Host {
        s,
        sites,
        extension_users,
        ..
    } = &mut h;
    let run = match resume {
        None => engine.run_resilient(&mut s.platform, sites, &s.users, extension_users, &options),
        Some(cp) => engine.resume_from(
            &mut s.platform,
            sites,
            &s.users,
            extension_users,
            &options,
            cp,
        ),
    }
    .expect("supervised run completes");
    let checkpoints = run.frames.iter().map(CheckpointFrame::to_bytes).collect();
    (
        outputs(&h, &run.outcome.extensions, run.outcome.report.impressions),
        checkpoints,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Random campaign sets + profile mutations yield byte-identical
    /// invoices, reports, and decoded Tread sets with the index on vs
    /// off, across 1/2/8 shards.
    #[test]
    fn index_and_scan_agree_across_shard_counts(
        extra in prop::collection::vec((0u8..10, 0u64..1000, 0u64..1000), 0..12),
        mutations in prop::collection::vec((0usize..POPULATION, 0u64..1000, 0u64..1000), 0..24),
    ) {
        let baseline = run(1, SelectionMode::Indexed, &extra, &mutations);
        prop_assert!(baseline.3 > 0, "the run must actually deliver ads");
        for shards in [1usize, 2, 8] {
            for mode in [SelectionMode::Indexed, SelectionMode::LinearScan] {
                if shards == 1 && mode == SelectionMode::Indexed {
                    continue;
                }
                let other = run(shards, mode, &extra, &mutations);
                prop_assert_eq!(
                    &baseline.0, &other.0,
                    "invoices differ at {} shards / {:?}", shards, mode
                );
                prop_assert_eq!(
                    &baseline.1, &other.1,
                    "ad reports differ at {} shards / {:?}", shards, mode
                );
                prop_assert_eq!(
                    &baseline.2, &other.2,
                    "reveals differ at {} shards / {:?}", shards, mode
                );
                prop_assert_eq!(baseline.3, other.3);
            }
        }
    }
}

/// Ads with three conjunct groups each, checkpointed after the first tick
/// and resumed on a fresh host: the resumed run equals the uninterrupted
/// run and the linear scan, and retakes its later checkpoints byte for
/// byte. Every mutation completes the ad built from the same `(a, b)`,
/// so the multi-group ads deliver, while users holding only some of a
/// group's keys are pruned.
#[test]
fn multi_group_resume_matches_full_and_scan_runs() {
    let params: Vec<(u64, u64)> = (0..12).map(|j| (j * 7 + 3, j * 5 + 1)).collect();
    let extra: Vec<ExtraAd> = params.iter().map(|&(a, b)| (9, a, b)).collect();
    let mutations: Vec<Mutation> = params
        .iter()
        .enumerate()
        .map(|(j, &(a, b))| (j * 3, a, b))
        .collect();
    for shards in [1usize, 2] {
        let (full, checkpoints) =
            resilient_run(shards, SelectionMode::Indexed, &extra, &mutations, None);
        let extra_invoice = full.0.last().expect("the extra account is invoiced");
        assert!(
            extra_invoice.gross > Money::ZERO,
            "the multi-group ads must deliver ({shards} shards)"
        );
        let (scan, _) = resilient_run(shards, SelectionMode::LinearScan, &extra, &mutations, None);
        assert_eq!(full, scan, "indexed vs scan, {shards} shards");

        assert!(checkpoints.len() >= 2, "the run checkpoints mid-flight");
        let cp = EngineCheckpoint::from_bytes(&checkpoints[0]).expect("decodes");
        let (resumed, later) = resilient_run(
            shards,
            SelectionMode::Indexed,
            &extra,
            &mutations,
            Some(&cp),
        );
        assert_eq!(full, resumed, "resumed vs uninterrupted, {shards} shards");
        assert_eq!(
            later,
            checkpoints[1..].to_vec(),
            "resumed run retakes later checkpoints byte for byte ({shards} shards)"
        );
    }
}

/// 256 extra ads whose attributes and ZIPs come from pools of 8 and whose
/// states from 3, so most keys post far more ads than their rows span
/// words and the index ORs them a row at a time (DESIGN.md §9), beside
/// short home-ZIP lists it still walks. Every user gains one of those
/// attributes and ZIPs. The indexed run must deliver the extra ads and
/// match the linear scan's outputs and impression log at 1, 2 and 8
/// shards.
#[test]
fn dense_rows_agree_with_scan_across_shard_counts() {
    let extra: Vec<ExtraAd> = (0..256u64)
        .map(|j| ((j % 10) as u8, j % 8, (j * 3 + 1) % 8))
        .collect();
    let mutations: Vec<Mutation> = (0..POPULATION as u64)
        .map(|i| (i as usize, i % 8, i * 5 % 8))
        .collect();
    let run_logged = |shards: usize, mode: SelectionMode| -> (Outputs, Vec<Impression>) {
        let mut h = host(mode, &extra, &mutations);
        let outcome =
            engine(shards).run(&mut h.s.platform, &h.sites, &h.s.users, &h.extension_users);
        let log = h.s.platform.log.all().to_vec();
        (
            outputs(&h, &outcome.extensions, outcome.report.impressions),
            log,
        )
    };
    let baseline = run_logged(1, SelectionMode::Indexed);
    let extra_invoice = baseline.0 .0.last().expect("the extra account is invoiced");
    assert!(
        extra_invoice.gross > Money::ZERO,
        "the extra ads must deliver"
    );
    for shards in [1usize, 2, 8] {
        for mode in [SelectionMode::Indexed, SelectionMode::LinearScan] {
            if shards == 1 && mode == SelectionMode::Indexed {
                continue;
            }
            let other = run_logged(shards, mode);
            assert_eq!(
                baseline.0, other.0,
                "outputs differ at {shards} shards / {mode:?}"
            );
            assert!(
                baseline.1 == other.1,
                "impression logs differ at {shards} shards / {mode:?}"
            );
        }
    }
}
