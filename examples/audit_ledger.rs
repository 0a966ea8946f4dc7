//! Audit the platform's delivery-receipt ledger.
//!
//! ```text
//! cargo run --example audit_ledger          # honest platform, clean audit
//! cargo run --example audit_ledger forge    # dishonest publish, caught
//! ```
//!
//! The flow is the transparency-ledger contract end to end: run the batch
//! engine with checkpointing on, recompute the receipt chains from the
//! checkpoint's impression log and diff them against the committed heads
//! (a resume would refuse to continue past a mismatch), then play the
//! auditor against the platform's *published* ledger — honestly, or with
//! a forged receipt slipped in — and attribute every divergence to an
//! exact chain, receipt index, and tick. Finally the user side: one
//! browser extension cross-checks the ledger's claims about it against
//! what it actually rendered.

use std::collections::BTreeSet;

use treads_repro::adsim_types::UserId;
use treads_repro::engine::{Engine, EngineConfig, FaultPlan, ResilienceOptions};
use treads_repro::resilience::{receipts_from_impressions, CheckpointFrame, LEDGER_CHAINS};
use treads_repro::treads::encoding::Encoding;
use treads_repro::treads::planner::CampaignPlan;
use treads_repro::websim::{ReceiptClaim, SessionConfig, SiteRegistry};
use treads_repro::workload::CohortScenario;

const SEED: u64 = 31;

fn main() {
    let dishonest = std::env::args().nth(1).as_deref() == Some("forge");

    // 1. A cohort scenario with one Tread campaign, run under the
    //    supervised engine with a checkpoint every other tick.
    let mut s = CohortScenario::setup(SEED, 60, 30);
    let names: Vec<String> = s
        .platform
        .attributes
        .partner_attributes()
        .iter()
        .take(12)
        .map(|d| d.name.clone())
        .collect();
    let plan = CampaignPlan::binary_in_ad("audit", &names, Encoding::CodebookToken);
    s.provider
        .run_plan(&mut s.platform, &plan, s.optin_audience)
        .expect("plan runs");

    let mut sites = SiteRegistry::new();
    sites.create("feed.example", 2);
    sites.create("news.example", 1);

    let engine = Engine::new(EngineConfig {
        shards: 2,
        session: SessionConfig {
            views_per_user_per_day: 6.0,
            days: 5,
        },
        seed: SEED,
        ..EngineConfig::default()
    });
    let options = ResilienceOptions {
        checkpoint_every_ticks: 2,
        ..ResilienceOptions::default()
    };
    let extension_users: BTreeSet<UserId> = s.opted_in.iter().copied().collect();
    let resilient = engine
        .run_resilient(
            &mut s.platform,
            &sites,
            &s.users,
            &extension_users,
            &options,
        )
        .expect("supervised run completes");
    let ledger = resilient
        .outcome
        .ledger
        .as_ref()
        .expect("the ledger is on by default");
    println!(
        "run complete: {} receipts across {} hash chains",
        ledger.len(),
        LEDGER_CHAINS
    );

    // 2. Checkpoint replay: recompute the chains from the checkpoint's
    //    own impression log and diff against the heads it committed.
    let Some(CheckpointFrame::Full(cp)) = resilient.frames.last() else {
        panic!("an all-base cadence took checkpoints");
    };
    let replayed =
        receipts_from_impressions(cp.config.seed, cp.config.tick_ms, &cp.platform.impressions);
    assert_eq!(replayed.heads(), cp.ledger, "checkpoint rewrote history");
    println!(
        "checkpoint replay: committed heads match {} impressions re-chained from the log",
        cp.platform.impressions.len()
    );

    // 3. The audit: the run's emission kept only the commitment (heads
    //    and counts), so the platform first materializes the full chains
    //    from its impression log — and they must reproduce the committed
    //    heads exactly. Then it publishes — honestly, or with a
    //    properly-signed forged receipt appended to its fullest chain —
    //    and the auditor diffs the publish against the recomputed
    //    reference.
    let full = receipts_from_impressions(ledger.seed(), ledger.tick_ms(), s.platform.log.all());
    assert_eq!(
        full.heads(),
        ledger.heads(),
        "materialized chains must reproduce the emission commitment"
    );
    let fullest = ledger
        .heads()
        .into_iter()
        .max_by_key(|h| h.count)
        .expect("heads cover every chain")
        .chain;
    let publish_plan = if dishonest {
        FaultPlan::new().forge_receipt(fullest)
    } else {
        FaultPlan::new()
    };
    let (published, injected) = full.publish(&publish_plan);
    let report = full.audit(&published);
    for f in &report.findings {
        println!(
            "equivocation: chain={} kind={:?} index={} tick={}",
            f.chain, f.kind, f.index, f.tick
        );
    }
    if report.is_clean() {
        println!(
            "ledger audit: clean ({} receipts checked across {} chains)",
            report.receipts_checked, report.chains_checked
        );
    } else {
        println!(
            "ledger audit: {} equivocation(s) detected, {} injected",
            report.findings.len(),
            injected.len()
        );
        let injected_set: Vec<_> = injected
            .iter()
            .map(|i| (i.chain, i.kind, i.index))
            .collect();
        assert_eq!(
            report.detected_set(),
            injected_set,
            "the auditor must attribute exactly what was injected"
        );
    }
    assert_eq!(report.is_clean(), !dishonest);

    // 4. The user side: an extension cross-checks the ledger's claims
    //    about it (re-derived via its own pseudonym) against the ads its
    //    browser actually rendered.
    let (user, log) = resilient
        .outcome
        .extensions
        .iter()
        .find(|(_, l)| !l.is_empty())
        .expect("some extension user saw ads");
    let claims: Vec<ReceiptClaim> = full
        .claims_for(*user)
        .into_iter()
        .map(|(ad, at)| ReceiptClaim { ad, at })
        .collect();
    let audit = log.verify_claims(&claims);
    assert!(
        audit.is_clean(),
        "honest claims must match the rendered feed"
    );
    println!(
        "extension cross-check for user {user}: {} claims matched, clean={}",
        audit.matched,
        audit.is_clean()
    );
}
