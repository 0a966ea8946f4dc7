//! Integration test: instrumentation is deterministic and inert.
//!
//! The telemetry contract (DESIGN.md "Observability") has two halves.
//! First, instrumentation must be *inert*: an instrumented engine run
//! mutates the platform bit-identically to an uninstrumented one, because
//! recording never draws randomness and never feeds back into a decision.
//! Second, the *deterministic slice* of the telemetry itself — merged
//! counters, value histograms, and the flight journal — must be invariant
//! in the shard count, exactly like invoices and impression logs; only the
//! `*_ns` wall-time histograms may differ run to run. A property test then
//! checks the algebra underneath: histogram merging is commutative and
//! associative, so per-shard registries can fold in any grouping.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use treads_repro::adsim_types::UserId;
use treads_repro::engine::{Engine, EngineConfig, Telemetry};
use treads_repro::telemetry::{FlightEvent, Histogram};
use treads_repro::treads::encoding::Encoding;
use treads_repro::treads::planner::CampaignPlan;
use treads_repro::websim::{SessionConfig, SiteRegistry};
use treads_repro::workload::CohortScenario;

const SEED: u64 = 47;

/// One instrumented engine run at the given shard count; the scenario is
/// rebuilt from scratch (setup is itself seed-deterministic).
fn run_instrumented(shards: usize) -> (RunOutputs, Telemetry) {
    let mut s = CohortScenario::setup(SEED, 50, 20);
    // Place ads the engine can deliver: a Tread plan over a slice of the
    // partner attributes, exactly as the determinism test does.
    let names: Vec<String> = s
        .platform
        .attributes
        .partner_attributes()
        .iter()
        .take(8)
        .map(|d| d.name.clone())
        .collect();
    let plan = CampaignPlan::binary_in_ad("telemetry", &names, Encoding::CodebookToken);
    s.provider
        .run_plan(&mut s.platform, &plan, s.optin_audience)
        .expect("plan runs");
    let mut sites = SiteRegistry::new();
    sites.create("feed.example", 2);
    sites.create("news.example", 1);
    let engine = Engine::new(EngineConfig {
        shards,
        session: SessionConfig {
            views_per_user_per_day: 5.0,
            days: 4,
        },
        seed: SEED,
        ..EngineConfig::default()
    });
    let extension_users: BTreeSet<UserId> = s.opted_in.iter().copied().collect();
    let mut telemetry = Telemetry::new();
    let outcome = engine.run_with_telemetry(
        &mut s.platform,
        &sites,
        &s.users,
        &extension_users,
        &mut telemetry,
    );
    let outputs = RunOutputs {
        impressions: outcome.report.impressions,
        page_views: outcome.report.page_views,
        pixel_fires: outcome.report.pixel_fires,
        log: format!("{:?}", s.platform.log.all()),
        stats: format!("{:?}", s.platform.stats),
    };
    (outputs, telemetry)
}

#[derive(Debug, PartialEq, Eq)]
struct RunOutputs {
    impressions: u64,
    page_views: u64,
    pixel_fires: u64,
    log: String,
    stats: String,
}

/// The shard-count-invariant slice of a telemetry snapshot.
fn deterministic_view(
    t: &Telemetry,
) -> (
    BTreeMap<String, u64>,
    BTreeMap<String, Histogram>,
    Vec<FlightEvent>,
) {
    let counters = t
        .metrics()
        .counters()
        .iter()
        .map(|(k, v)| (k.to_string(), *v))
        .collect();
    let histograms = t
        .metrics()
        .histograms()
        .iter()
        .filter(|(k, _)| !k.ends_with("_ns"))
        .map(|(k, h)| (k.to_string(), h.clone()))
        .collect();
    let flight = t.flight().events().copied().collect();
    (counters, histograms, flight)
}

#[test]
fn instrumented_runs_are_shard_count_invariant() {
    let (out1, t1) = run_instrumented(1);
    assert!(out1.impressions > 0, "the run must actually deliver ads");
    let view1 = deterministic_view(&t1);
    // The root package always compiles telemetry in, so the counters must
    // actually be populated; sanity-check a few against the run report
    // before comparing across shards.
    assert_eq!(t1.metrics().counter("engine.impressions"), out1.impressions);
    assert_eq!(t1.metrics().counter("engine.page_views"), out1.page_views);
    assert_eq!(t1.metrics().counter("engine.pixel_fires"), out1.pixel_fires);
    assert!(!view1.2.is_empty(), "flight journal captured events");
    for shards in [2, 8] {
        let (out_n, t_n) = run_instrumented(shards);
        // The simulation itself is byte-identical…
        assert_eq!(out1, out_n, "platform outputs differ at {shards} shards");
        // …and so is the deterministic slice of the telemetry.
        let view_n = deterministic_view(&t_n);
        assert_eq!(
            view1.0, view_n.0,
            "merged counters differ at {shards} shards"
        );
        assert_eq!(
            view1.1, view_n.1,
            "value histograms differ at {shards} shards"
        );
        assert_eq!(
            view1.2, view_n.2,
            "flight journal differs at {shards} shards"
        );
    }
}

/// A histogram over the shared small-value bounds, filled from a vector.
fn histo_of(values: &[u64]) -> Histogram {
    let mut h = Histogram::small_values();
    for &v in values {
        h.observe(v);
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Histogram merge is commutative: a⊎b = b⊎a.
    #[test]
    fn histogram_merge_commutes(
        a in prop::collection::vec(0u64..600, 0..40),
        b in prop::collection::vec(0u64..600, 0..40),
    ) {
        let (ha, hb) = (histo_of(&a), histo_of(&b));
        let mut ab = ha.clone();
        ab.merge(&hb);
        let mut ba = hb.clone();
        ba.merge(&ha);
        prop_assert_eq!(ab, ba);
    }

    /// Histogram merge is associative: (a⊎b)⊎c = a⊎(b⊎c) — and both equal
    /// observing every value into one histogram, so per-shard registries
    /// can fold in any grouping without changing the merged totals.
    #[test]
    fn histogram_merge_associates(
        a in prop::collection::vec(0u64..600, 0..40),
        b in prop::collection::vec(0u64..600, 0..40),
        c in prop::collection::vec(0u64..600, 0..40),
    ) {
        let (ha, hb, hc) = (histo_of(&a), histo_of(&b), histo_of(&c));
        let mut left = ha.clone();
        left.merge(&hb);
        left.merge(&hc);
        let mut bc = hb.clone();
        bc.merge(&hc);
        let mut right = ha.clone();
        right.merge(&bc);
        prop_assert_eq!(&left, &right);
        let all: Vec<u64> = a.iter().chain(&b).chain(&c).copied().collect();
        prop_assert_eq!(left, histo_of(&all));
    }
}
