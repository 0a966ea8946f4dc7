//! Integration test: the parallel engine is deterministic in the shard
//! count.
//!
//! The engine's contract (DESIGN.md "Engine architecture") is that a run
//! is a function of the seed alone: partitioning the users across 1, 2, or
//! 8 worker shards must produce identical **invoices** (billing state),
//! identical **ad reports** (reporting state), and identical **decoded
//! Tread sets** (what opted-in users learn) — not merely statistically
//! similar ones. A property test then checks the mechanism underneath:
//! merging any partition of a tick's events yields one canonical order.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use treads_repro::adplatform::billing::Invoice;
use treads_repro::adplatform::reporting::AdReport;
use treads_repro::adsim_types::{PixelId, SimTime, UserId};
use treads_repro::engine::{
    merge_batches, merge_batches_lossy, Engine, EngineConfig, MergeError, ShardEvent,
};
use treads_repro::treads::encoding::Encoding;
use treads_repro::treads::planner::CampaignPlan;
use treads_repro::treads::TreadClient;
use treads_repro::websim::{SessionConfig, SiteRegistry};
use treads_repro::workload::CohortScenario;

const SEED: u64 = 31;

/// One full engine run at the given shard count, built from scratch
/// (scenario setup is itself seed-deterministic), returning every output
/// the determinism contract covers.
fn run_with_shards(
    shards: usize,
) -> (
    Vec<Invoice>,
    Vec<AdReport>,
    BTreeMap<UserId, BTreeSet<String>>,
    usize,
) {
    let mut s = CohortScenario::setup(SEED, 60, 30);
    let names: Vec<String> = s
        .platform
        .attributes
        .partner_attributes()
        .iter()
        .take(12)
        .map(|d| d.name.clone())
        .collect();
    let plan = CampaignPlan::binary_in_ad("engine", &names, Encoding::CodebookToken);
    let receipt = s
        .provider
        .run_plan(&mut s.platform, &plan, s.optin_audience)
        .expect("plan runs");

    let mut sites = SiteRegistry::new();
    sites.create("feed.example", 2);
    sites.create("news.example", 1);

    let engine = Engine::new(EngineConfig {
        shards,
        session: SessionConfig {
            views_per_user_per_day: 6.0,
            days: 5,
        },
        seed: SEED,
        ..EngineConfig::default()
    });
    let extension_users: BTreeSet<UserId> = s.opted_in.iter().copied().collect();
    let outcome = engine.run(&mut s.platform, &sites, &s.users, &extension_users);

    let invoices = s
        .provider
        .accounts
        .iter()
        .map(|&a| s.platform.invoice(a))
        .collect();
    let reports = receipt
        .placed
        .iter()
        .filter(|p| p.approved)
        .map(|p| {
            s.platform
                .ad_report(receipt.account, p.ad)
                .expect("placed ad reports")
        })
        .collect();
    let client = TreadClient::new(s.provider.codebook.clone(), &s.platform.attributes);
    let reveals = outcome
        .extensions
        .iter()
        .map(|(&u, log)| (u, client.decode_log(log, |_| None).has))
        .collect();
    (
        invoices,
        reports,
        reveals,
        outcome.report.impressions as usize,
    )
}

#[test]
fn shard_count_does_not_change_any_output() {
    let (invoices1, reports1, reveals1, impressions1) = run_with_shards(1);
    assert!(impressions1 > 0, "the run must actually deliver ads");
    assert!(
        reveals1.values().any(|has| !has.is_empty()),
        "some opted-in user must decode a Tread"
    );
    for shards in [2, 8] {
        let (invoices_n, reports_n, reveals_n, impressions_n) = run_with_shards(shards);
        assert_eq!(invoices1, invoices_n, "invoices differ at {shards} shards");
        assert_eq!(reports1, reports_n, "ad reports differ at {shards} shards");
        assert_eq!(reveals1, reveals_n, "reveals differ at {shards} shards");
        assert_eq!(impressions1, impressions_n);
    }
}

/// Synthetic but key-unique event soup: distinct `(user, user_seq)` pairs
/// with colliding timestamps, the shape a real tick produces.
fn synthetic_events(n: usize) -> Vec<ShardEvent> {
    (0..n)
        .map(|i| ShardEvent::PixelFire {
            at: SimTime((i % 7) as u64),
            user: UserId((i % 13) as u64),
            user_seq: (i / 13) as u64,
            pixel: PixelId(1),
        })
        .collect()
}

/// Splits `events` into 8 batches by `assignment`, each batch in
/// production order or pre-sorted by key (shards hand in sorted runs, but
/// the merge must accept either), then reverses the batch order, as
/// scheduling-dependent arrival would.
fn partition(
    events: &[ShardEvent],
    assignment: &[usize],
    presorted: &[bool],
) -> Vec<Vec<ShardEvent>> {
    let mut batches: Vec<Vec<ShardEvent>> = vec![Vec::new(); 8];
    for (e, &batch) in events.iter().zip(assignment) {
        batches[batch].push(*e);
    }
    for (batch, &sorted) in batches.iter_mut().zip(presorted) {
        if sorted {
            batch.sort_by_key(ShardEvent::key);
        }
    }
    batches.reverse();
    batches
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Merging is invariant to how events are partitioned into batches:
    /// any assignment of events to any number of shards, in any order,
    /// sorted or not, merges to the single-batch result.
    #[test]
    fn merge_is_permutation_invariant(
        n in 1usize..80,
        assignment in prop::collection::vec(0usize..8, 80..81),
        presorted in prop::collection::vec(any::<bool>(), 8..9),
    ) {
        let events = synthetic_events(n);
        let canonical = merge_batches(vec![events.clone()]);
        let batches = partition(&events, &assignment, &presorted);
        prop_assert_eq!(merge_batches(batches), canonical);
    }

    /// With duplicate keys injected, the lossy merge keeps exactly the
    /// copy a stable sort of the concatenated batches keeps first, and
    /// reports every dropped copy in merged order; the strict merge fails
    /// on the smallest duplicated key.
    #[test]
    fn lossy_merge_matches_the_stable_sort_oracle(
        n in 1usize..80,
        assignment in prop::collection::vec(0usize..8, 80..81),
        presorted in prop::collection::vec(any::<bool>(), 8..9),
        injected in prop::collection::vec((0usize..80, 0usize..8), 0..12),
    ) {
        let events = synthetic_events(n);
        let mut batches = partition(&events, &assignment, &presorted);
        // Each injected copy shares its original's key but carries its
        // own pixel, so the test sees which copy survives.
        for (k, &(i, batch)) in injected.iter().enumerate() {
            let mut copy = events[i % n];
            if let ShardEvent::PixelFire { pixel, .. } = &mut copy {
                *pixel = PixelId(100 + k as u64);
            }
            let at = (i * 7 + k) % (batches[batch].len() + 1);
            batches[batch].insert(at, copy);
        }

        let mut oracle: Vec<ShardEvent> = batches.iter().flatten().copied().collect();
        oracle.sort_by_key(ShardEvent::key);
        let mut dropped = Vec::new();
        oracle.dedup_by(|next, kept| {
            let dup = next.key() == kept.key();
            if dup {
                let (at, user, user_seq) = kept.key();
                dropped.push(MergeError { at, user, user_seq });
            }
            dup
        });

        let strict = match dropped.first() {
            Some(&first) => Err(first),
            None => Ok(oracle.clone()),
        };
        prop_assert_eq!(merge_batches(batches.clone()), strict);
        prop_assert_eq!(merge_batches_lossy(batches), (oracle, dropped));
    }
}
