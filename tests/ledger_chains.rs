//! Integration test: the delivery-receipt ledger (DESIGN.md §15).
//!
//! The transparency-ledger contract has four clauses:
//!
//! 1. **Honest runs verify clean.** At 1, 2, and 8 shards the emission
//!    commitment (chain heads and counts) is identical, the chains
//!    materialized from the impression log reproduce it byte for byte,
//!    an honest publish audits clean, and every extension user's feed
//!    matches the ledger's claims about it (proptest over run seeds).
//! 2. **Serving ≡ batch.** The serving front end fed the batch engine's
//!    own arrival stream maintains the identical commitment and
//!    materializes the identical chains.
//! 3. **Dishonesty is detected exactly.** For any seeded
//!    `DishonestPlatform` schedule, the auditor's detected set equals
//!    the injected set — same chains, same fault kinds, same receipt
//!    indices (chaos proptest: soundness *and* completeness).
//! 4. **Resume cannot rewrite history.** A checkpoint whose committed
//!    heads disagree with chains recomputed from its own impression log
//!    is refused before any state is restored.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::OnceLock;
use treads_repro::adplatform::campaign::AdCreative;
use treads_repro::adplatform::targeting::{TargetingExpr, TargetingSpec};
use treads_repro::adsim_types::{Money, UserId};
use treads_repro::engine::{
    Engine, EngineCheckpoint, EngineConfig, FaultPlan, ResilienceOptions, DAY_MS,
};
use treads_repro::resilience::{
    receipts_from_impressions, CheckpointFrame, ReceiptLedger, LEDGER_CHAINS,
};
use treads_repro::serving::{OpportunityRequest, ServingConfig, ServingEngine, Ticket};
use treads_repro::treads::encoding::Encoding;
use treads_repro::treads::planner::CampaignPlan;
use treads_repro::websim::{
    ArrivalSchedule, ExtensionLog, ReceiptClaim, SessionConfig, SiteRegistry,
};
use treads_repro::workload::CohortScenario;

const DAYS: u64 = 3;

/// The seeded ledger scenario: a cohort with one Tread campaign plus
/// two always-on broad campaigns, so every page view can deliver and
/// the receipt chains are populated.
fn scenario(seed: u64) -> (CohortScenario, SiteRegistry) {
    let mut s = CohortScenario::setup(seed, 40, 20);
    let names: Vec<String> = s
        .platform
        .attributes
        .partner_attributes()
        .iter()
        .take(12)
        .map(|d| d.name.clone())
        .collect();
    let plan = CampaignPlan::binary_in_ad("ledger", &names, Encoding::CodebookToken);
    s.provider
        .run_plan(&mut s.platform, &plan, s.optin_audience)
        .expect("plan runs");

    let adv = s.platform.register_advertiser("ledger-filler");
    let acct = s.platform.open_account(adv).expect("account");
    for (name, cpm) in [("brand", 2), ("promo", 3)] {
        let camp = s
            .platform
            .create_campaign(acct, name, Money::dollars(cpm), None)
            .expect("campaign");
        s.platform
            .submit_ad(
                camp,
                AdCreative::text(name, "ledger test"),
                TargetingSpec::including(TargetingExpr::Everyone),
            )
            .expect("ad");
    }

    let mut sites = SiteRegistry::new();
    sites.create("feed.example", 2);
    sites.create("news.example", 1);
    (s, sites)
}

fn session() -> SessionConfig {
    SessionConfig {
        views_per_user_per_day: 6.0,
        days: DAYS,
    }
}

fn engine(seed: u64, shards: usize) -> Engine {
    Engine::new(EngineConfig {
        shards,
        session: session(),
        seed,
        ..EngineConfig::default()
    })
}

/// Everything one ledger-on batch run yields: the emission commitment,
/// the chains materialized from the impression log, the per-user
/// extension logs, and the impression count.
struct LedgerRun {
    commitment: ReceiptLedger,
    full: ReceiptLedger,
    extensions: BTreeMap<UserId, ExtensionLog>,
    impressions: u64,
}

/// One plain engine run (ledger on by default) over the seeded
/// scenario; scenario setup is itself seed-deterministic.
fn batch_run(seed: u64, shards: usize) -> LedgerRun {
    let (mut s, sites) = scenario(seed);
    let extension_users: BTreeSet<UserId> = s.opted_in.iter().copied().collect();
    let outcome = engine(seed, shards).run(&mut s.platform, &sites, &s.users, &extension_users);
    let commitment = outcome.ledger.expect("ledger is on by default");
    let full = receipts_from_impressions(
        commitment.seed(),
        commitment.tick_ms(),
        s.platform.log.all(),
    );
    LedgerRun {
        commitment,
        full,
        extensions: outcome.extensions,
        impressions: outcome.report.impressions,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Clause 1: honest runs verify clean at every shard count, and the
    /// commitment is shard-count-invariant.
    #[test]
    fn honest_runs_verify_clean_at_every_shard_count(seed in 0u64..1000) {
        let reference = batch_run(seed, 1);
        prop_assert_eq!(reference.commitment.len(), reference.impressions,
            "one receipt per delivered impression");
        prop_assert_eq!(reference.full.heads(), reference.commitment.heads(),
            "materialized chains must reproduce the emission commitment");

        // An honest publish audits clean.
        let (published, injected) = reference.full.publish(&FaultPlan::new());
        prop_assert!(injected.is_empty());
        let report = reference.full.audit(&published);
        prop_assert!(report.is_clean(), "honest publish must audit clean: {:?}", report.findings);
        prop_assert_eq!(report.receipts_checked, reference.full.len());

        // Every extension user's rendered feed matches the ledger's
        // claims about it.
        for (user, log) in &reference.extensions {
            let claims: Vec<ReceiptClaim> = reference
                .full
                .claims_for(*user)
                .into_iter()
                .map(|(ad, at)| ReceiptClaim { ad, at })
                .collect();
            let audit = log.verify_claims(&claims);
            prop_assert!(audit.is_clean(),
                "user {} feed mismatch: {} unobserved, {} unreceipted",
                user, audit.unobserved.len(), audit.unreceipted.len());
        }

        // Shard-count invariance: 2- and 8-shard runs emit the same
        // commitment and materialize the same chains.
        for shards in [2usize, 8] {
            let other = batch_run(seed, shards);
            prop_assert_eq!(&other.commitment, &reference.commitment,
                "commitment differs at {} shards", shards);
            prop_assert_eq!(&other.full, &reference.full,
                "materialized chains differ at {} shards", shards);
        }
    }
}

/// Clause 3's fixture: one materialized ledger, reused across the chaos
/// proptest's cases (the engine run is the expensive part; publish and
/// audit are cheap).
fn chaos_ledger() -> &'static ReceiptLedger {
    static LEDGER: OnceLock<ReceiptLedger> = OnceLock::new();
    LEDGER.get_or_init(|| {
        let run = batch_run(31, 2);
        assert!(run.full.len() > 100, "chaos fixture needs populated chains");
        run.full
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Clause 3: every seeded dishonest publish is detected with exact
    /// attribution — the auditor finds all injected tamperings
    /// (completeness) and nothing else (soundness).
    #[test]
    fn dishonest_publishes_detected_exactly(fault_seed in 0u64..10_000) {
        let ledger = chaos_ledger();
        let plan = FaultPlan::random_dishonest(fault_seed, LEDGER_CHAINS);
        let (published, injected) = ledger.publish(&plan);
        let report = ledger.audit(&published);
        let mut detected = report.detected_set();
        let mut expected: Vec<_> = injected.iter().map(|i| (i.chain, i.kind, i.index)).collect();
        detected.sort();
        expected.sort();
        prop_assert_eq!(detected, expected, "fault seed {}", fault_seed);
    }
}

/// Clause 2: the serving front end fed the batch engine's arrival
/// stream emits the identical ledger.
#[test]
fn serving_emits_the_batch_ledger() {
    const SEED: u64 = 31;
    let batch = batch_run(SEED, 2);

    let (mut s, sites) = scenario(SEED);
    let arrivals = ArrivalSchedule::from_sessions(&s.users, &sites.ids(), &session(), SEED);
    let engine = ServingEngine::new(ServingConfig {
        shards: 2,
        tick_ms: DAY_MS,
        horizon_ms: DAYS * DAY_MS,
        seed: SEED,
        queue_watermark: u64::MAX,
        ..ServingConfig::default()
    });
    let extension_users: BTreeSet<UserId> = s.opted_in.iter().copied().collect();
    let (outcome, _) = engine.serve(&mut s.platform, &sites, &extension_users, |frontend| {
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
        tickets.into_iter().map(Ticket::wait).collect::<Vec<_>>()
    });
    let commitment = outcome.ledger.expect("serving ledger is on by default");
    assert_eq!(
        commitment, batch.commitment,
        "serving and batch emission commitments differ"
    );
    let full = receipts_from_impressions(
        commitment.seed(),
        commitment.tick_ms(),
        s.platform.log.all(),
    );
    assert_eq!(full, batch.full, "serving and batch chains differ");
}

/// Clause 4: a checkpoint whose committed heads were rewritten is
/// refused at resume.
#[test]
fn resume_refuses_rewritten_ledger_heads() {
    const SEED: u64 = 31;
    let options = ResilienceOptions {
        checkpoint_every_ticks: 1,
        ..ResilienceOptions::default()
    };

    let (mut s, sites) = scenario(SEED);
    let extension_users: BTreeSet<UserId> = s.opted_in.iter().copied().collect();
    let resilient = engine(SEED, 2)
        .run_resilient(
            &mut s.platform,
            &sites,
            &s.users,
            &extension_users,
            &options,
        )
        .expect("supervised run completes");
    let mut cp = resilient
        .frames
        .into_iter()
        .filter_map(|frame| match frame {
            CheckpointFrame::Full(cp) => Some(cp),
            CheckpointFrame::Delta(_) => None,
        })
        .find(|cp| cp.ledger.iter().any(|h| h.count > 0))
        .expect("some checkpoint has receipts");

    let resume = |cp: &EngineCheckpoint| {
        let (mut s, sites) = scenario(SEED);
        let extension_users: BTreeSet<UserId> = s.opted_in.iter().copied().collect();
        engine(SEED, 2).resume_from(
            &mut s.platform,
            &sites,
            &s.users,
            &extension_users,
            &options,
            cp,
        )
    };

    // An untampered checkpoint resumes fine on a fresh host...
    resume(&cp).expect("honest checkpoint resumes");

    // ...but rewriting any committed head is refused before restore.
    let target = cp
        .ledger
        .iter()
        .position(|h| h.count > 0)
        .expect("a chain has receipts");
    cp.ledger[target].head ^= 1;
    let err = resume(&cp).expect_err("tampered checkpoint must be refused");
    assert!(
        err.to_string().contains("ledger heads"),
        "unexpected error: {err}"
    );
}
