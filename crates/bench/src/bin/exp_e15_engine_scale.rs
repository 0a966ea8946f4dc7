//! E15 — engine scale: sharded parallel simulation throughput.
//!
//! The single-threaded driver tops out around the tens of thousands of
//! users the cohort experiments use. This experiment exercises
//! `treads-engine` — the sharded, deterministic parallel engine — at shard
//! counts {1, 2, 4, 8} on one population, checks the shard counts agree
//! *exactly* (same invoiced spend, same impression log length, same merged
//! telemetry counters and flight journal), then runs a million-user
//! population end to end.
//!
//! Every run records into an enabled handle through
//! `Engine::run_with_telemetry`, so the sweep also yields a per-phase
//! wall-time breakdown (session-gen / auction / delivery / merge / apply)
//! with p50/p95/p99 tick latencies, and a same-binary overhead
//! measurement (telemetry enabled vs the disabled handle `Engine::run`
//! uses).
//!
//! Emits `BENCH_engine.json` with the measured throughput and telemetry
//! overhead, plus `experiments-out/telemetry_engine_scale.{json,prom}` —
//! the full telemetry snapshot of the 8-shard sweep run in both formats.
//! Speedup is whatever the hardware gives: on a single-core container the
//! 8-shard run cannot beat the 1-shard run, and the JSON records the
//! honest numbers next to the thread count so readers can judge.
//!
//! It also sweeps **inventory size** (100 → 10 000 ads) with candidate
//! selection toggled between the inverted targeting index and the
//! linear-scan oracle, verifying both modes produce identical outputs
//! and recording the indexed-vs-scan speedup (`ad_sweep` in the JSON).
//!
//! It also sweeps **targeting evaluation** (E17): the same inventory
//! sizes with candidate selection pinned to the linear scan (so every
//! opportunity evaluates every ad) and deep, string-heavy targeting
//! expressions over fat profiles, toggled between the compiled program
//! evaluator and the tree-walking oracle — verifying identical outputs
//! and recording the compiled-vs-tree speedup (`eval_sweep` in the JSON).
//!
//! It also measures **checkpoint/restore overhead**: the supervised run
//! with tick-boundary checkpointing off, full snapshots every tick, and
//! delta frames every tick (full base every 8th frame); each frame
//! chain prefix must fold byte-identical to the corresponding full
//! snapshot, and both a resume-from-snapshot and a resume from a
//! base+2-delta prefix must reproduce the uninterrupted run's outputs
//! exactly (`checkpoint` in the JSON).
//!
//! Knobs: `TREADS_SEED` (seed), `TREADS_ENGINE_SWEEP_USERS` (sweep
//! population, default 20 000), `TREADS_ENGINE_AD_SWEEP_USERS`
//! (ad-sweep population, default 1 000), `TREADS_ENGINE_EVAL_SWEEP_USERS`
//! (eval-sweep population, default 400), `TREADS_ENGINE_CHECKPOINT_USERS`
//! (checkpoint run population, default = sweep population),
//! `TREADS_ENGINE_BIG_USERS` (big run population, default 1 000 000;
//! `0` skips it).

use adplatform::campaign::AdCreative;
use adplatform::compiled::EvalMode;
use adplatform::index::SelectionMode;
use adplatform::profile::Gender;
use adplatform::targeting::{TargetingExpr, TargetingSpec};
use adplatform::{Platform, PlatformConfig};
use adsim_types::{AttributeId, Money, UserId};
use std::collections::BTreeSet;
use std::time::Instant;
use treads_bench::{banner, section, verdict, Table};
use treads_engine::resilience::{fold_frames, CheckpointFrame};
use treads_engine::{
    Engine, EngineCheckpoint, EngineConfig, EngineReport, FaultPlan, ResilienceOptions, Telemetry,
};
use treads_telemetry::FlightEvent;
use websim::{SessionConfig, SiteRegistry};

/// The per-phase wall-time histograms the engine records, in pipeline
/// order. `engine.tick_ns` (whole-tick latency) is reported separately.
const PHASES: [(&str, &str); 5] = [
    ("session-gen", "phase.session_gen_ns"),
    ("auction", "phase.auction_ns"),
    ("delivery", "phase.delivery_ns"),
    ("merge", "phase.merge_ns"),
    ("apply", "phase.apply_ns"),
];

/// A delivery-heavy platform: `n` users, three always-on campaigns, two
/// sites (one carrying a retargeting pixel).
fn build(n: u64, seed: u64) -> (Platform, SiteRegistry, Vec<UserId>) {
    let mut p = Platform::us_2018(PlatformConfig::facebook_like(seed));
    let adv = p.register_advertiser("scale-advertiser");
    let acct = p.open_account(adv).expect("account");
    for (name, cpm) in [("brand", 2), ("promo", 3), ("retarget", 5)] {
        let camp = p
            .create_campaign(acct, name, Money::dollars(cpm), None)
            .expect("campaign");
        p.submit_ad(
            camp,
            AdCreative::text(name, "engine-scale workload"),
            TargetingSpec::including(TargetingExpr::Everyone),
        )
        .expect("ad");
    }
    let users: Vec<UserId> = (0..n)
        .map(|i| {
            p.register_user(
                18 + (i % 60) as u8,
                if i % 2 == 0 {
                    Gender::Female
                } else {
                    Gender::Male
                },
                "Ohio",
                "43004",
            )
        })
        .collect();
    let mut sites = SiteRegistry::new();
    sites.create("feed.example", 2);
    let shop = sites.create("shop.example", 1);
    let pixel = p.create_pixel(acct, "shop pixel").expect("pixel");
    sites.embed_pixel(shop, pixel);
    (p, sites, users)
}

/// Attribute pool for the ad-count sweep. Ads anchor on one attribute
/// each; users hold three. Expected candidates per opportunity are then
/// ~3/50 of the inventory, so the linear scan's per-opportunity cost
/// grows ~17x faster with inventory size than the indexed path's.
const SWEEP_ATTRS: u64 = 50;

/// An inventory-heavy platform for the candidate-selection sweep:
/// `n_ads` attribute-anchored ads, `n_users` users holding three
/// deterministic attributes each, one plain site.
fn build_inventory(n_users: u64, n_ads: u64, seed: u64) -> (Platform, SiteRegistry, Vec<UserId>) {
    let mut p = Platform::us_2018(PlatformConfig::facebook_like(seed));
    let adv = p.register_advertiser("inventory-advertiser");
    let acct = p.open_account(adv).expect("account");
    let camp = p
        .create_campaign(acct, "inventory", Money::dollars(3), None)
        .expect("campaign");
    for j in 0..n_ads {
        p.submit_ad(
            camp,
            AdCreative::text(format!("ad {j}"), "ad-sweep workload"),
            TargetingSpec::including(TargetingExpr::Attr(AttributeId(j % SWEEP_ATTRS + 1))),
        )
        .expect("ad");
    }
    let users: Vec<UserId> = (0..n_users)
        .map(|i| {
            let id = p.register_user(
                18 + (i % 60) as u8,
                if i % 2 == 0 {
                    Gender::Female
                } else {
                    Gender::Male
                },
                "Ohio",
                "43004",
            );
            for k in [
                i % SWEEP_ATTRS,
                (i * 7 + 3) % SWEEP_ATTRS,
                (i * 13 + 11) % SWEEP_ATTRS,
            ] {
                p.profiles
                    .grant_attribute(id, AttributeId(k + 1))
                    .expect("grant");
            }
            id
        })
        .collect();
    let mut sites = SiteRegistry::new();
    sites.create("feed.example", 2);
    (p, sites, users)
}

/// ZIP pool size for the eval sweep at a given catalog size. The pool
/// scales with the catalog so each ad's visited-ZIP arms stay niche at
/// every ad count: with a fixed pool the eligible set per opportunity —
/// and with it the auction-sort cost both evaluators pay identically —
/// grows with the catalog and drowns the evaluation cost the sweep is
/// meant to isolate.
fn eval_zip_pool(n_ads: u64) -> u64 {
    (n_ads / 2).max(50)
}

fn eval_zip(n: u64, pool: u64) -> String {
    format!("{:05}", 20_000 + n % pool)
}

/// An evaluation-heavy platform for the E17 eval-mode sweep: `n_ads` ads
/// with deep, string-heavy targeting (state names, ZIP equality, and
/// visited-ZIP membership under nested connectives — the tree walker's
/// worst case, all string compares and linear scans), over fat profiles
/// (a dozen attributes, two dozen visited ZIPs each). Candidate selection
/// is pinned to the linear scan by the caller so every opportunity pays
/// full evaluation cost for every ad.
fn build_eval_inventory(
    n_users: u64,
    n_ads: u64,
    seed: u64,
) -> (Platform, SiteRegistry, Vec<UserId>) {
    const STATES: [&str; 4] = ["Ohio", "Texas", "California", "Pennsylvania"];
    let pool = eval_zip_pool(n_ads);
    let mut p = Platform::us_2018(PlatformConfig::facebook_like(seed));
    let adv = p.register_advertiser("eval-advertiser");
    let acct = p.open_account(adv).expect("account");
    let camp = p
        .create_campaign(acct, "eval", Money::dollars(3), None)
        .expect("campaign");
    for j in 0..n_ads {
        let visited_or = TargetingExpr::Or(
            (0..6)
                .map(|k| TargetingExpr::VisitedZip(eval_zip(j * 5 + k, pool)))
                .collect(),
        );
        let geo_or = TargetingExpr::Or(vec![
            TargetingExpr::InState(STATES[(j % 4) as usize].into()),
            TargetingExpr::InState(STATES[((j + 1) % 4) as usize].into()),
            TargetingExpr::InZip(eval_zip(j * 3, pool)),
        ]);
        let spec = TargetingSpec::including_excluding(
            TargetingExpr::And(vec![
                geo_or,
                visited_or,
                TargetingExpr::AgeRange {
                    min: 18,
                    max: 18 + (j % 55 + 5) as u8,
                },
                TargetingExpr::Attr(AttributeId(j % SWEEP_ATTRS + 1)),
            ]),
            TargetingExpr::VisitedZip(eval_zip(j * 11 + 7, pool)),
        );
        p.submit_ad(
            camp,
            AdCreative::text(format!("eval ad {j}"), "eval-sweep workload"),
            spec,
        )
        .expect("ad");
    }
    let users: Vec<UserId> = (0..n_users)
        .map(|i| {
            let id = p.register_user(
                18 + (i % 60) as u8,
                if i % 2 == 0 {
                    Gender::Female
                } else {
                    Gender::Male
                },
                STATES[(i % 4) as usize],
                &eval_zip(i, pool),
            );
            for k in 0..12 {
                p.profiles
                    .grant_attribute(id, AttributeId((i * 7 + k * 5 + 3) % SWEEP_ATTRS + 1))
                    .expect("grant");
            }
            for k in 0..24 {
                p.profiles
                    .record_zip_visit(id, &eval_zip(i * 13 + k * 3, pool))
                    .expect("visit");
            }
            id
        })
        .collect();
    let mut sites = SiteRegistry::new();
    sites.create("feed.example", 2);
    (p, sites, users)
}

/// One mode's run at one ad-count point.
struct ModeRun {
    elapsed_s: f64,
    report: EngineReport,
    invoiced: Money,
    log_len: usize,
}

fn measure_inventory(
    n_users: u64,
    n_ads: u64,
    seed: u64,
    shards: usize,
    session: SessionConfig,
    mode: SelectionMode,
) -> ModeRun {
    let (mut p, sites, users) = build_inventory(n_users, n_ads, seed);
    p.campaigns.set_selection_mode(mode);
    let engine = Engine::new(EngineConfig {
        shards,
        session,
        seed,
        ..EngineConfig::default()
    });
    let start = Instant::now();
    let outcome = engine.run(&mut p, &sites, &users, &BTreeSet::new());
    let elapsed_s = start.elapsed().as_secs_f64();
    let account = p
        .campaigns
        .campaigns()
        .next()
        .expect("campaigns exist")
        .account;
    ModeRun {
        elapsed_s,
        report: outcome.report,
        invoiced: p.billing.invoice(account).gross,
        log_len: p.log.all().len(),
    }
}

fn measure_eval(
    n_users: u64,
    n_ads: u64,
    seed: u64,
    shards: usize,
    session: SessionConfig,
    eval: EvalMode,
) -> ModeRun {
    let (mut p, sites, users) = build_eval_inventory(n_users, n_ads, seed);
    // Pin selection to the linear scan so both evaluators face the whole
    // inventory on every opportunity: the sweep isolates evaluation cost,
    // not candidate pruning (which the ad sweep above already measures).
    p.campaigns.set_selection_mode(SelectionMode::LinearScan);
    p.campaigns.set_eval_mode(eval);
    let engine = Engine::new(EngineConfig {
        shards,
        session,
        seed,
        ..EngineConfig::default()
    });
    let start = Instant::now();
    let outcome = engine.run(&mut p, &sites, &users, &BTreeSet::new());
    let elapsed_s = start.elapsed().as_secs_f64();
    let account = p
        .campaigns
        .campaigns()
        .next()
        .expect("campaigns exist")
        .account;
    ModeRun {
        elapsed_s,
        report: outcome.report,
        invoiced: p.billing.invoice(account).gross,
        log_len: p.log.all().len(),
    }
}

struct Measured {
    shards: usize,
    elapsed_s: f64,
    report: EngineReport,
    invoiced: Money,
    log_len: usize,
    telemetry: Telemetry,
}

fn measure(
    n: u64,
    seed: u64,
    shards: usize,
    session: SessionConfig,
    instrumented: bool,
) -> Measured {
    let (mut p, sites, users) = build(n, seed);
    let engine = Engine::new(EngineConfig {
        shards,
        session,
        seed,
        ..EngineConfig::default()
    });
    let start = Instant::now();
    let mut telemetry = if instrumented {
        Telemetry::new()
    } else {
        Telemetry::disabled()
    };
    let outcome =
        engine.run_with_telemetry(&mut p, &sites, &users, &BTreeSet::new(), &mut telemetry);
    let elapsed_s = start.elapsed().as_secs_f64();
    let account = p
        .campaigns
        .campaigns()
        .next()
        .expect("campaigns exist")
        .account;
    let invoiced = p.billing.invoice(account).gross;
    Measured {
        shards,
        elapsed_s,
        report: outcome.report,
        invoiced,
        log_len: p.log.all().len(),
        telemetry,
    }
}

/// `(count, [p50, p95, p99])` of a named histogram, zeros when absent
/// (e.g. on a disabled handle).
fn histo_stats(t: &Telemetry, name: &str) -> (u64, [u64; 3]) {
    t.metrics()
        .histogram(name)
        .map(|h| (h.count(), h.percentiles()))
        .unwrap_or((0, [0, 0, 0]))
}

fn ms(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1e6)
}

/// The shard-count-invariant slice of a run's telemetry: every
/// simulation-derived counter and every non-wall-time histogram.
/// Excluded: `*_ns` histograms (wall time legitimately varies run to run)
/// and `flight.*` counters (ring-drop accounting is per-shard by design).
/// The journal itself is only content-deterministic while no shard's ring
/// overflowed, so it is compared separately when that holds.
#[derive(PartialEq)]
struct TelemetryView {
    counters: Vec<(String, u64)>,
    histograms: Vec<(String, treads_telemetry::Histogram)>,
    flight: Vec<FlightEvent>,
}

fn deterministic_view(t: &Telemetry) -> TelemetryView {
    let counters = t
        .metrics()
        .counters()
        .iter()
        .filter(|(k, _)| !k.starts_with("flight."))
        .map(|(k, v)| (k.to_string(), *v))
        .collect();
    let histograms = t
        .metrics()
        .histograms()
        .iter()
        .filter(|(k, _)| !k.ends_with("_ns"))
        .map(|(k, h)| (k.to_string(), h.clone()))
        .collect();
    let journal_complete =
        t.flight().dropped() == 0 && t.metrics().counter("flight.dropped_in_shards") == 0;
    let flight = if journal_complete {
        t.flight().events().copied().collect()
    } else {
        Vec::new()
    };
    TelemetryView {
        counters,
        histograms,
        flight,
    }
}

fn env_u64(key: &str, default: u64) -> u64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let seed = treads_bench::experiment_seed();
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    banner(
        "E15",
        "Engine scale — sharded deterministic parallel simulation",
    );
    println!("  hardware threads available: {threads}");

    section("Shard sweep (same seed, same population, instrumented)");
    let sweep_users = env_u64("TREADS_ENGINE_SWEEP_USERS", 20_000);
    let sweep_session = SessionConfig {
        views_per_user_per_day: 4.0,
        days: 2,
    };
    let mut sweep: Vec<Measured> = Vec::new();
    let mut t = Table::new([
        "shards",
        "elapsed s",
        "users/sec",
        "auctions/sec",
        "impressions",
        "invoiced",
    ]);
    for shards in [1usize, 2, 4, 8] {
        let m = measure(sweep_users, seed, shards, sweep_session, true);
        t.row([
            m.shards.to_string(),
            format!("{:.2}", m.elapsed_s),
            format!("{:.0}", sweep_users as f64 / m.elapsed_s),
            format!("{:.0}", m.report.opportunities as f64 / m.elapsed_s),
            m.report.impressions.to_string(),
            format!("{}", m.invoiced),
        ]);
        sweep.push(m);
    }
    t.print();

    let baseline = &sweep[0];
    let deterministic = sweep.iter().all(|m| {
        m.invoiced == baseline.invoiced
            && m.log_len == baseline.log_len
            && m.report.impressions == baseline.report.impressions
            && m.report.pixel_fires == baseline.report.pixel_fires
    });
    // Telemetry determinism: merged counters, value histograms, and the
    // flight journal must also be shard-count-invariant (only `*_ns`
    // wall-time histograms may differ).
    let baseline_view = deterministic_view(&baseline.telemetry);
    let telemetry_deterministic = sweep
        .iter()
        .all(|m| deterministic_view(&m.telemetry) == baseline_view);
    let eight = sweep.last().expect("sweep ran");
    let speedup8 = baseline.elapsed_s / eight.elapsed_s;
    println!("  8-shard speedup over 1 shard: {speedup8:.2}x on {threads} hardware thread(s)");
    if threads < 2 {
        println!("  (single-core host: shards serialize, so ~1x is the physical ceiling)");
    }

    section("Ad-count sweep (indexed vs linear-scan candidate selection)");
    let ad_sweep_users = env_u64("TREADS_ENGINE_AD_SWEEP_USERS", 1_000);
    let ad_session = SessionConfig {
        views_per_user_per_day: 2.0,
        days: 1,
    };
    let ad_shards = threads.clamp(1, 4);
    struct AdPoint {
        ads: u64,
        indexed: ModeRun,
        scan: ModeRun,
        identical: bool,
    }
    let mut ad_points: Vec<AdPoint> = Vec::new();
    let mut at = Table::new([
        "ads",
        "indexed s",
        "scan s",
        "indexed auctions/s",
        "scan auctions/s",
        "speedup",
    ]);
    for ads in [100u64, 1_000, 10_000] {
        let indexed = measure_inventory(
            ad_sweep_users,
            ads,
            seed,
            ad_shards,
            ad_session,
            SelectionMode::Indexed,
        );
        let scan = measure_inventory(
            ad_sweep_users,
            ads,
            seed,
            ad_shards,
            ad_session,
            SelectionMode::LinearScan,
        );
        let identical = indexed.invoiced == scan.invoiced
            && indexed.log_len == scan.log_len
            && indexed.report.impressions == scan.report.impressions
            && indexed.report.opportunities == scan.report.opportunities;
        at.row([
            ads.to_string(),
            format!("{:.3}", indexed.elapsed_s),
            format!("{:.3}", scan.elapsed_s),
            format!(
                "{:.0}",
                indexed.report.opportunities as f64 / indexed.elapsed_s
            ),
            format!("{:.0}", scan.report.opportunities as f64 / scan.elapsed_s),
            format!("{:.2}x", scan.elapsed_s / indexed.elapsed_s),
        ]);
        ad_points.push(AdPoint {
            ads,
            indexed,
            scan,
            identical,
        });
    }
    at.print();
    let ad_outputs_identical = ad_points.iter().all(|p| p.identical);
    let last_point = ad_points.last().expect("ad sweep ran");
    let speedup_10k = (last_point.indexed.report.opportunities as f64
        / last_point.indexed.elapsed_s)
        / (last_point.scan.report.opportunities as f64 / last_point.scan.elapsed_s);
    println!(
        "  at {} ads: indexed selection sustains {:.2}x the linear scan's auctions/sec",
        last_point.ads, speedup_10k
    );

    section("Eval-mode sweep (compiled programs vs tree oracle, linear scan)");
    let eval_sweep_users = env_u64("TREADS_ENGINE_EVAL_SWEEP_USERS", 400);
    let eval_session = SessionConfig {
        views_per_user_per_day: 2.0,
        days: 1,
    };
    let eval_shards = threads.clamp(1, 4);
    struct EvalPoint {
        ads: u64,
        compiled: ModeRun,
        tree: ModeRun,
        identical: bool,
    }
    let mut eval_points: Vec<EvalPoint> = Vec::new();
    let mut et = Table::new([
        "ads",
        "compiled s",
        "tree s",
        "compiled auctions/s",
        "tree auctions/s",
        "speedup",
    ]);
    for ads in [100u64, 1_000, 10_000] {
        let compiled = measure_eval(
            eval_sweep_users,
            ads,
            seed,
            eval_shards,
            eval_session,
            EvalMode::Compiled,
        );
        let tree = measure_eval(
            eval_sweep_users,
            ads,
            seed,
            eval_shards,
            eval_session,
            EvalMode::Tree,
        );
        let identical = compiled.invoiced == tree.invoiced
            && compiled.log_len == tree.log_len
            && compiled.report.impressions == tree.report.impressions
            && compiled.report.opportunities == tree.report.opportunities;
        et.row([
            ads.to_string(),
            format!("{:.3}", compiled.elapsed_s),
            format!("{:.3}", tree.elapsed_s),
            format!(
                "{:.0}",
                compiled.report.opportunities as f64 / compiled.elapsed_s
            ),
            format!("{:.0}", tree.report.opportunities as f64 / tree.elapsed_s),
            format!("{:.2}x", tree.elapsed_s / compiled.elapsed_s),
        ]);
        eval_points.push(EvalPoint {
            ads,
            compiled,
            tree,
            identical,
        });
    }
    et.print();
    let eval_outputs_identical = eval_points.iter().all(|p| p.identical);
    let eval_last = eval_points.last().expect("eval sweep ran");
    let eval_speedup_10k = (eval_last.compiled.report.opportunities as f64
        / eval_last.compiled.elapsed_s)
        / (eval_last.tree.report.opportunities as f64 / eval_last.tree.elapsed_s);
    println!(
        "  at {} ads: compiled evaluation sustains {:.2}x the tree walker's auctions/sec",
        eval_last.ads, eval_speedup_10k
    );

    section("Per-phase breakdown (8-shard sweep run)");
    let mut pt = Table::new(["phase", "observations", "p50 ms", "p95 ms", "p99 ms"]);
    let mut phases_recorded = true;
    for (label, metric) in PHASES {
        let (count, [p50, p95, p99]) = histo_stats(&eight.telemetry, metric);
        phases_recorded &= count > 0;
        pt.row([
            label.to_string(),
            count.to_string(),
            ms(p50),
            ms(p95),
            ms(p99),
        ]);
    }
    pt.print();
    let (tick_count, [tick_p50, tick_p95, tick_p99]) =
        histo_stats(&eight.telemetry, "engine.tick_ns");
    println!(
        "  tick latency over {} tick(s): p50 {} ms, p95 {} ms, p99 {} ms",
        tick_count,
        ms(tick_p50),
        ms(tick_p95),
        ms(tick_p99)
    );
    println!(
        "  flight journal: {} event(s) retained, {} dropped",
        eight.telemetry.flight().len(),
        eight.telemetry.flight().dropped()
    );

    section("Instrumentation overhead (same binary, telemetry on vs off)");
    // A 3x population and interleaved best-of-5: single runs at sweep
    // scale are noisy to several percent on a busy host, and the measured
    // effect is single-digit percent, so lengthen the runs and take each
    // side's fastest observation as its capability (scheduler noise only
    // ever slows a run down, so min-of-k converges on the true cost).
    let overhead_users = sweep_users * 3;
    let overhead_shards = threads.clamp(1, 4);
    let mut plain_s = f64::INFINITY;
    let mut inst_s = f64::INFINITY;
    for _ in 0..5 {
        plain_s = plain_s
            .min(measure(overhead_users, seed, overhead_shards, sweep_session, false).elapsed_s);
        inst_s = inst_s
            .min(measure(overhead_users, seed, overhead_shards, sweep_session, true).elapsed_s);
    }
    let overhead_pct = (inst_s - plain_s) / plain_s * 100.0;
    println!(
        "  {overhead_users} users, {overhead_shards} shard(s): {plain_s:.3}s off, {inst_s:.3}s on \
         -> {overhead_pct:+.2}% overhead"
    );

    section("Checkpoint/restore overhead (tick-boundary snapshots)");
    // Same supervised code path with checkpointing off, full snapshots
    // every tick, and delta frames every tick (full base every 8th frame),
    // then resumes from a full snapshot and from a base+2-delta frame
    // prefix on freshly built hosts. Eight simulated days, so the delta
    // cadence is measured over one full base-frame window (a base plus
    // seven deltas); best-of-3 per side for the same scheduler-noise
    // reason as the overhead section.
    let ckpt_users = env_u64("TREADS_ENGINE_CHECKPOINT_USERS", sweep_users);
    let ckpt_shards = threads.clamp(1, 4);
    let ckpt_session = SessionConfig {
        views_per_user_per_day: sweep_session.views_per_user_per_day,
        days: 8,
    };
    let run_supervised = |every: u64, delta_base: u64| {
        let (mut p, sites, users) = build(ckpt_users, seed);
        let engine = Engine::new(EngineConfig {
            shards: ckpt_shards,
            session: ckpt_session,
            seed,
            ..EngineConfig::default()
        });
        let options = ResilienceOptions {
            faults: FaultPlan::new(),
            max_retries_per_shard_tick: 3,
            checkpoint_every_ticks: every,
            delta_base_every: delta_base,
        };
        let start = Instant::now();
        let out = engine
            .run_resilient(&mut p, &sites, &users, &BTreeSet::new(), &options)
            .expect("supervised run");
        let elapsed_s = start.elapsed().as_secs_f64();
        let account = p
            .campaigns
            .campaigns()
            .next()
            .expect("campaigns exist")
            .account;
        (
            elapsed_s,
            out,
            p.billing.invoice(account).gross,
            p.log.all().len(),
        )
    };
    let mut plain_ckpt_s = f64::INFINITY;
    let mut every_tick_s = f64::INFINITY;
    let mut delta_tick_s = f64::INFINITY;
    let mut checkpointed = None;
    let mut deltaed = None;
    for _ in 0..3 {
        plain_ckpt_s = plain_ckpt_s.min(run_supervised(0, 0).0);
        let run = run_supervised(1, 0);
        every_tick_s = every_tick_s.min(run.0);
        checkpointed = Some(run);
        let run = run_supervised(1, 8);
        delta_tick_s = delta_tick_s.min(run.0);
        deltaed = Some(run);
    }
    let (_, ckpt_out, ckpt_invoiced, ckpt_log_len) = checkpointed.expect("checkpointed run ran");
    let (_, delta_out, delta_invoiced, delta_log_len) = deltaed.expect("delta run ran");
    let n_checkpoints = ckpt_out.frames.len();
    assert!(n_checkpoints > 0, "every-tick cadence took checkpoints");
    let n_frames = delta_out.frames.len();
    assert_eq!(n_frames, n_checkpoints, "one frame per checkpointed tick");
    let encode_start = Instant::now();
    let first_bytes = ckpt_out.frames[0].to_bytes();
    let encode_ms = encode_start.elapsed().as_secs_f64() * 1e3;
    let ckpt_bytes = first_bytes.len();
    let ckpt_overhead_pct = (every_tick_s - plain_ckpt_s) / plain_ckpt_s * 100.0;
    let per_ckpt_ms = (every_tick_s - plain_ckpt_s) / n_checkpoints as f64 * 1e3;
    println!(
        "  {ckpt_users} users, {ckpt_shards} shard(s), {n_checkpoints} checkpoint(s): \
         {plain_ckpt_s:.3}s off, {every_tick_s:.3}s every tick -> {ckpt_overhead_pct:+.2}% \
         ({per_ckpt_ms:.2} ms/checkpoint, {ckpt_bytes} bytes, encode {encode_ms:.2} ms)"
    );

    // Delta cadence against the same plain run: per-frame cost and the
    // mean encoded size of the delta frames (the chain's full base frame
    // reported separately above).
    let delta_overhead_pct = (delta_tick_s - plain_ckpt_s) / plain_ckpt_s * 100.0;
    let per_delta_ms = (delta_tick_s - plain_ckpt_s) / n_frames as f64 * 1e3;
    let delta_sizes: Vec<usize> = delta_out
        .frames
        .iter()
        .filter(|f| matches!(f, CheckpointFrame::Delta(_)))
        .map(|f| f.to_bytes().len())
        .collect();
    assert!(
        !delta_sizes.is_empty(),
        "delta cadence produced delta frames"
    );
    let delta_bytes_mean = delta_sizes.iter().sum::<usize>() / delta_sizes.len();
    let delta_outputs_identical = delta_invoiced == ckpt_invoiced && delta_log_len == ckpt_log_len;
    println!(
        "  delta cadence (base every 8): {delta_tick_s:.3}s every tick -> \
         {delta_overhead_pct:+.2}% ({per_delta_ms:.2} ms/frame, {} delta frame(s), \
         mean {delta_bytes_mean} bytes, {:.1}% of a full snapshot)",
        delta_sizes.len(),
        delta_bytes_mean as f64 / ckpt_bytes as f64 * 100.0
    );

    // Every prefix of the frame chain must fold back to a checkpoint
    // byte-identical to the full snapshot the full-cadence run took at
    // the same tick — the oracle that the dirty-set bookkeeping missed
    // nothing.
    let delta_fold_identical = delta_outputs_identical
        && (0..n_frames).all(|i| {
            fold_frames(&delta_out.frames[..=i])
                .expect("frame chain folds")
                .to_bytes()
                == ckpt_out.frames[i].to_bytes()
        });
    println!(
        "  every base+delta prefix folds byte-identical to the full snapshot: {}",
        delta_fold_identical
    );

    // Resume from the first snapshot on a fresh host: decode the bytes,
    // rebuild the identical platform, and finish the run. The resumed
    // outputs must match the uninterrupted checkpointed run exactly.
    let decoded = EngineCheckpoint::from_bytes(&first_bytes).expect("checkpoint decodes");
    let (resumed_invoiced, resumed_log_len, resumed_report) = {
        let (mut p, sites, users) = build(ckpt_users, seed);
        let engine = Engine::new(EngineConfig {
            shards: ckpt_shards,
            session: ckpt_session,
            seed,
            ..EngineConfig::default()
        });
        let options = ResilienceOptions {
            faults: FaultPlan::new(),
            max_retries_per_shard_tick: 3,
            checkpoint_every_ticks: 1,
            delta_base_every: 0,
        };
        let out = engine
            .resume_from(&mut p, &sites, &users, &BTreeSet::new(), &options, &decoded)
            .expect("resume completes");
        let account = p
            .campaigns
            .campaigns()
            .next()
            .expect("campaigns exist")
            .account;
        (
            p.billing.invoice(account).gross,
            p.log.all().len(),
            out.outcome.report,
        )
    };
    let resume_identical = resumed_invoiced == ckpt_invoiced
        && resumed_log_len == ckpt_log_len
        && resumed_report.impressions == ckpt_out.outcome.report.impressions
        && resumed_report.pixel_fires == ckpt_out.outcome.report.pixel_fires;
    println!(
        "  resume from checkpoint 1/{}: identical outputs = {}",
        n_checkpoints, resume_identical
    );

    // Resume from a base+2-delta frame prefix on a fresh host: the fold
    // verifies the chain (config echo, parent ticks, state digest) before
    // anything is mutated, then the run finishes from tick 3.
    let resume_prefix = n_frames.min(3);
    let (delta_resumed_invoiced, delta_resumed_log_len, delta_resumed_report) = {
        let (mut p, sites, users) = build(ckpt_users, seed);
        let engine = Engine::new(EngineConfig {
            shards: ckpt_shards,
            session: ckpt_session,
            seed,
            ..EngineConfig::default()
        });
        let options = ResilienceOptions {
            faults: FaultPlan::new(),
            max_retries_per_shard_tick: 3,
            checkpoint_every_ticks: 1,
            delta_base_every: 8,
        };
        let out = engine
            .resume_from_frames(
                &mut p,
                &sites,
                &users,
                &BTreeSet::new(),
                &options,
                &delta_out.frames[..resume_prefix],
            )
            .expect("delta resume completes");
        let account = p
            .campaigns
            .campaigns()
            .next()
            .expect("campaigns exist")
            .account;
        (
            p.billing.invoice(account).gross,
            p.log.all().len(),
            out.outcome.report,
        )
    };
    let delta_resume_identical = delta_resumed_invoiced == ckpt_invoiced
        && delta_resumed_log_len == ckpt_log_len
        && delta_resumed_report.impressions == ckpt_out.outcome.report.impressions
        && delta_resumed_report.pixel_fires == ckpt_out.outcome.report.pixel_fires;
    println!(
        "  resume from base+{} delta frame(s): identical outputs = {}",
        resume_prefix - 1,
        delta_resume_identical
    );

    section("Million-user run");
    let big_users = env_u64("TREADS_ENGINE_BIG_USERS", 1_000_000);
    let big = if big_users > 0 {
        // Lighter browsing per user: a million users, one simulated day.
        let session = SessionConfig {
            views_per_user_per_day: 0.5,
            days: 1,
        };
        let shards = threads.clamp(2, 8);
        let m = measure(big_users, seed, shards, session, true);
        println!(
            "  {} users, {} shards: {:.2}s ({:.0} users/sec, {:.0} auctions/sec, {} impressions)",
            big_users,
            m.shards,
            m.elapsed_s,
            big_users as f64 / m.elapsed_s,
            m.report.opportunities as f64 / m.elapsed_s,
            m.report.impressions
        );
        Some(m)
    } else {
        println!("  skipped (TREADS_ENGINE_BIG_USERS=0)");
        None
    };

    // Full telemetry snapshot of the 8-shard sweep run, both formats.
    std::fs::create_dir_all("experiments-out").expect("create experiments-out/");
    std::fs::write(
        "experiments-out/telemetry_engine_scale.json",
        eight.telemetry.snapshot_json(),
    )
    .expect("write telemetry snapshot json");
    std::fs::write(
        "experiments-out/telemetry_engine_scale.prom",
        eight.telemetry.snapshot_prometheus(),
    )
    .expect("write telemetry snapshot prom");
    println!("\n  wrote experiments-out/telemetry_engine_scale.{{json,prom}}");

    // Hand-rolled JSON: the workspace has no serialization dependency.
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"experiment\": \"engine_scale\",\n");
    json.push_str(&format!("  \"seed\": {seed},\n"));
    json.push_str(&format!("  \"hardware_threads\": {threads},\n"));
    json.push_str(&format!("  \"sweep_users\": {sweep_users},\n"));
    json.push_str("  \"sweep\": [\n");
    for (i, m) in sweep.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"shards\": {}, \"elapsed_s\": {:.4}, \"users_per_sec\": {:.1}, \
             \"auctions_per_sec\": {:.1}, \"page_views\": {}, \"impressions\": {}}}{}\n",
            m.shards,
            m.elapsed_s,
            sweep_users as f64 / m.elapsed_s,
            m.report.opportunities as f64 / m.elapsed_s,
            m.report.page_views,
            m.report.impressions,
            if i + 1 < sweep.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"deterministic_across_shard_counts\": {deterministic},\n"
    ));
    json.push_str(&format!(
        "  \"telemetry_deterministic_across_shard_counts\": {telemetry_deterministic},\n"
    ));
    json.push_str(&format!("  \"speedup_8_shards\": {speedup8:.3},\n"));
    json.push_str(&format!(
        "  \"ad_sweep_users\": {ad_sweep_users},\n  \"ad_sweep\": [\n"
    ));
    for (i, pt) in ad_points.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"ads\": {}, \"indexed_elapsed_s\": {:.4}, \"scan_elapsed_s\": {:.4}, \
             \"indexed_auctions_per_sec\": {:.1}, \"scan_auctions_per_sec\": {:.1}, \
             \"speedup\": {:.3}, \"outputs_identical\": {}}}{}\n",
            pt.ads,
            pt.indexed.elapsed_s,
            pt.scan.elapsed_s,
            pt.indexed.report.opportunities as f64 / pt.indexed.elapsed_s,
            pt.scan.report.opportunities as f64 / pt.scan.elapsed_s,
            (pt.indexed.report.opportunities as f64 / pt.indexed.elapsed_s)
                / (pt.scan.report.opportunities as f64 / pt.scan.elapsed_s),
            pt.identical,
            if i + 1 < ad_points.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"ad_sweep_outputs_identical\": {ad_outputs_identical},\n"
    ));
    json.push_str(&format!(
        "  \"ad_sweep_speedup_at_10k\": {speedup_10k:.3},\n"
    ));
    json.push_str(&format!(
        "  \"eval_sweep_users\": {eval_sweep_users},\n  \"eval_sweep\": [\n"
    ));
    for (i, pt) in eval_points.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"ads\": {}, \"compiled_elapsed_s\": {:.4}, \"tree_elapsed_s\": {:.4}, \
             \"compiled_auctions_per_sec\": {:.1}, \"tree_auctions_per_sec\": {:.1}, \
             \"speedup\": {:.3}, \"outputs_identical\": {}}}{}\n",
            pt.ads,
            pt.compiled.elapsed_s,
            pt.tree.elapsed_s,
            pt.compiled.report.opportunities as f64 / pt.compiled.elapsed_s,
            pt.tree.report.opportunities as f64 / pt.tree.elapsed_s,
            (pt.compiled.report.opportunities as f64 / pt.compiled.elapsed_s)
                / (pt.tree.report.opportunities as f64 / pt.tree.elapsed_s),
            pt.identical,
            if i + 1 < eval_points.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"eval_sweep_outputs_identical\": {eval_outputs_identical},\n"
    ));
    json.push_str(&format!(
        "  \"eval_sweep_speedup_at_10k\": {eval_speedup_10k:.3},\n"
    ));
    json.push_str("  \"telemetry\": {\n");
    json.push_str(&format!(
        "    \"overhead_pct\": {overhead_pct:.3},\n    \"overhead_shards\": {overhead_shards},\n    \
         \"plain_elapsed_s\": {plain_s:.4},\n    \"instrumented_elapsed_s\": {inst_s:.4},\n"
    ));
    json.push_str(&format!(
        "    \"tick_ns\": {{\"count\": {tick_count}, \"p50\": {tick_p50}, \"p95\": {tick_p95}, \
         \"p99\": {tick_p99}}},\n"
    ));
    json.push_str("    \"phases\": {\n");
    for (i, (label, metric)) in PHASES.iter().enumerate() {
        let (count, [p50, p95, p99]) = histo_stats(&eight.telemetry, metric);
        json.push_str(&format!(
            "      \"{label}\": {{\"count\": {count}, \"p50_ns\": {p50}, \"p95_ns\": {p95}, \
             \"p99_ns\": {p99}}}{}\n",
            if i + 1 < PHASES.len() { "," } else { "" }
        ));
    }
    json.push_str("    }\n");
    json.push_str("  },\n");
    json.push_str(&format!(
        "  \"checkpoint\": {{\"users\": {ckpt_users}, \"shards\": {ckpt_shards}, \
         \"checkpoints\": {n_checkpoints}, \"plain_elapsed_s\": {plain_ckpt_s:.4}, \
         \"every_tick_elapsed_s\": {every_tick_s:.4}, \"overhead_pct\": {ckpt_overhead_pct:.3}, \
         \"per_checkpoint_ms\": {per_ckpt_ms:.3}, \"bytes\": {ckpt_bytes}, \
         \"encode_ms\": {encode_ms:.3}, \"resume_identical\": {resume_identical}, \
         \"delta_base_every\": 8, \"delta_elapsed_s\": {delta_tick_s:.4}, \
         \"delta_overhead_pct\": {delta_overhead_pct:.3}, \"per_delta_ms\": {per_delta_ms:.3}, \
         \"delta_bytes_mean\": {delta_bytes_mean}, \"delta_frames\": {}, \
         \"delta_fold_identical\": {delta_fold_identical}, \
         \"delta_resume_identical\": {delta_resume_identical}}},\n",
        delta_sizes.len()
    ));
    match &big {
        Some(m) => json.push_str(&format!(
            "  \"million\": {{\"users\": {}, \"shards\": {}, \"elapsed_s\": {:.4}, \
             \"users_per_sec\": {:.1}, \"auctions_per_sec\": {:.1}, \"impressions\": {}}}\n",
            big_users,
            m.shards,
            m.elapsed_s,
            big_users as f64 / m.elapsed_s,
            m.report.opportunities as f64 / m.elapsed_s,
            m.report.impressions
        )),
        None => json.push_str("  \"million\": null\n"),
    }
    json.push_str("}\n");
    std::fs::write("BENCH_engine.json", &json).expect("write BENCH_engine.json");
    println!("  wrote BENCH_engine.json");

    section("Verdicts");
    verdict(
        "all shard counts produce identical invoices and impression logs",
        deterministic,
    );
    verdict(
        "merged telemetry counters and value histograms are shard-count-invariant",
        telemetry_deterministic,
    );
    verdict(
        "indexed and linear-scan selection produce identical outputs at every ad count",
        ad_outputs_identical,
    );
    verdict(
        "indexed selection sustains >=3x the scan's auctions/sec at 10k ads",
        speedup_10k >= 3.0,
    );
    verdict(
        "compiled and tree evaluation produce identical outputs at every ad count",
        eval_outputs_identical,
    );
    verdict(
        "compiled evaluation sustains >=2x the tree walker's auctions/sec at 10k ads",
        eval_speedup_10k >= 2.0,
    );
    verdict(
        "every engine phase recorded wall time (session-gen/auction/delivery/merge/apply)",
        phases_recorded,
    );
    // Journaling every auction costs ~30ns on an ~800ns workload, so the
    // honest enabled-overhead floor is low single digits.
    verdict(
        "instrumentation overhead stays in low single digits (<8%)",
        overhead_pct < 8.0,
    );
    verdict(
        "resume from a decoded checkpoint reproduces the uninterrupted run",
        resume_identical,
    );
    verdict(
        "every base+delta frame prefix folds byte-identical to the full snapshot",
        delta_fold_identical,
    );
    verdict(
        "resume from a base+2-delta frame prefix reproduces the uninterrupted run",
        delta_resume_identical,
    );
    // The build() workload keeps essentially every user active every
    // tick, so per-user cursor upserts put a floor under the delta size;
    // a third of a full snapshot is the honest bound for this workload
    // (sparse-activity workloads shrink with the dirty set).
    verdict(
        "delta frames stay under a third of a full snapshot's size",
        delta_bytes_mean * 3 < ckpt_bytes,
    );
    // The chain's one full base frame (and the first post-base delta,
    // which carries the heaviest tick's mutations) dominates the delta
    // cadence's mean; steady-state delta frames cost ~1 ms against ~27 ms
    // full snapshots. Halving the every-tick overhead is the honest
    // whole-chain bar on this all-users-active workload.
    verdict(
        "delta cadence at least halves the full cadence's every-tick overhead",
        delta_tick_s - plain_ckpt_s < (every_tick_s - plain_ckpt_s) / 2.0,
    );
    verdict(
        "million-user run completes",
        big.as_ref()
            .map(|m| m.report.users == big_users)
            .unwrap_or(true),
    );
}
