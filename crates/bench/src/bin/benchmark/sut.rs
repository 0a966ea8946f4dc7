//! The benchmark's one boundary with the system under test.
//!
//! Every call into the simulator's crates is made from this file: the
//! scenario builders, the batch engine's entry points, persistence, the
//! serving front end, and the layer functions the traced stepper drives.
//! When an entry point is renamed or a persistence type changes, only
//! this file has to follow. The rest of the benchmark sees plain data.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::{Duration, Instant};

use adplatform::auction::run_auction_traced;
use adplatform::billing::BudgetSnapshot;
use adplatform::campaign::AdCreative;
use adplatform::delivery::{eligible_bids_traced, eligible_bids_traced_into, DeliveryScratch};
use adplatform::profile::Gender;
use adplatform::targeting::{TargetingExpr, TargetingSpec};
use adplatform::{Platform, PlatformConfig};
use adsim_types::{AttributeId, Money, SimTime, SiteId, UserId};
use rand::rngs::StdRng;
use rand::Rng;
use treads_engine::resilience::checkpoint::{ConfigEcho, ReportCounters};
use treads_engine::resilience::delta::{DeltaFrame, DeltaHead, DeltaTracker, ShardDeltaSource};
use treads_engine::resilience::ledger::{receipts_from_impressions, LedgerHead, ReceiptLedger};
use treads_engine::resilience::{fold_frames, FaultReport};
use treads_engine::{
    fold_tick_events, merge_batches, Engine, EngineCheckpoint, EngineConfig, EngineReport,
    ResilienceOptions, ShardBatch, ShardEvent, ShardState, Telemetry, TickProbe, DAY_MS,
};
use treads_serving::{Frontend, OpportunityRequest, ServingConfig, ServingEngine, TraceConfig};
use treads_workload::ShardPlan;
use websim::{BrowsingEvent, SessionConfig, SessionSchedule, SiteRegistry};

use crate::loadgen::{Arrival, Target};
use crate::trace::{since, Replay, Spans};

/// A checkpoint frame, full or delta.
pub use treads_engine::resilience::CheckpointFrame as Frame;

/// A freshly built platform with its sites and users.
pub struct Host {
    platform: Platform,
    sites: SiteRegistry,
    users: Vec<UserId>,
}

impl Host {
    pub fn user_count(&self) -> u32 {
        u32::try_from(self.users.len()).expect("populations fit in u32")
    }

    pub fn site_count(&self) -> u32 {
        u32::try_from(self.sites.len()).expect("site lists fit in u32")
    }
}

/// The scenario a host is built from.
#[derive(Debug, Clone, Copy)]
pub enum Population {
    /// Three always-on `Everyone` campaigns and a two-slot feed plus a
    /// shop site carrying a retargeting pixel (the E15 platform).
    Broad { users: u64 },
    /// `ads` deep, string-heavy targeting specs over fat profiles (the
    /// E17 evaluation inventory), under the default indexed selection
    /// and compiled evaluation.
    Inventory { users: u64, ads: u64 },
}

pub fn build_host(population: Population, seed: u64) -> Host {
    match population {
        Population::Broad { users } => broad(users, seed),
        Population::Inventory { users, ads } => inventory(users, ads, seed),
    }
}

fn gender(i: u64) -> Gender {
    if i.is_multiple_of(2) {
        Gender::Female
    } else {
        Gender::Male
    }
}

fn broad(n: u64, seed: u64) -> Host {
    let mut p = Platform::us_2018(PlatformConfig::facebook_like(seed));
    let adv = p.register_advertiser("broad-advertiser");
    let acct = p.open_account(adv).expect("account");
    for (name, cpm) in [("brand", 2), ("promo", 3), ("retarget", 5)] {
        let camp = p
            .create_campaign(acct, name, Money::dollars(cpm), None)
            .expect("campaign");
        p.submit_ad(
            camp,
            AdCreative::text(name, "broad workload"),
            TargetingSpec::including(TargetingExpr::Everyone),
        )
        .expect("ad");
    }
    let users = (0..n)
        .map(|i| p.register_user(18 + (i % 60) as u8, gender(i), "Ohio", "43004"))
        .collect();
    let mut sites = SiteRegistry::new();
    sites.create("feed.example", 2);
    let shop = sites.create("shop.example", 1);
    let pixel = p.create_pixel(acct, "shop pixel").expect("pixel");
    sites.embed_pixel(shop, pixel);
    Host {
        platform: p,
        sites,
        users,
    }
}

/// Attribute pool the inventory's ads anchor on.
const INVENTORY_ATTRS: u64 = 50;

fn inventory_zip(n: u64, pool: u64) -> String {
    format!("{:05}", 20_000 + n % pool)
}

fn inventory(n_users: u64, n_ads: u64, seed: u64) -> Host {
    const STATES: [&str; 4] = ["Ohio", "Texas", "California", "Pennsylvania"];
    // The ZIP pool grows with the catalog so each ad's visited-ZIP arms
    // stay niche at every size.
    let pool = (n_ads / 2).max(50);
    let mut p = Platform::us_2018(PlatformConfig::facebook_like(seed));
    let adv = p.register_advertiser("inventory-advertiser");
    let acct = p.open_account(adv).expect("account");
    let camp = p
        .create_campaign(acct, "inventory", Money::dollars(3), None)
        .expect("campaign");
    for j in 0..n_ads {
        let visited = TargetingExpr::Or(
            (0..6)
                .map(|k| TargetingExpr::VisitedZip(inventory_zip(j * 5 + k, pool)))
                .collect(),
        );
        let geo = TargetingExpr::Or(vec![
            TargetingExpr::InState(STATES[(j % 4) as usize].into()),
            TargetingExpr::InState(STATES[((j + 1) % 4) as usize].into()),
            TargetingExpr::InZip(inventory_zip(j * 3, pool)),
        ]);
        let spec = TargetingSpec::including_excluding(
            TargetingExpr::And(vec![
                geo,
                visited,
                TargetingExpr::AgeRange {
                    min: 18,
                    max: 18 + (j % 55 + 5) as u8,
                },
                TargetingExpr::Attr(AttributeId(j % INVENTORY_ATTRS + 1)),
            ]),
            TargetingExpr::VisitedZip(inventory_zip(j * 11 + 7, pool)),
        );
        p.submit_ad(
            camp,
            AdCreative::text(format!("inventory ad {j}"), "inventory workload"),
            spec,
        )
        .expect("ad");
    }
    let users = (0..n_users)
        .map(|i| {
            let id = p.register_user(
                18 + (i % 60) as u8,
                gender(i),
                STATES[(i % 4) as usize],
                &inventory_zip(i, pool),
            );
            for k in 0..12 {
                p.profiles
                    .grant_attribute(id, AttributeId((i * 7 + k * 5 + 3) % INVENTORY_ATTRS + 1))
                    .expect("grant");
            }
            for k in 0..24 {
                p.profiles
                    .record_zip_visit(id, &inventory_zip(i * 13 + k * 3, pool))
                    .expect("visit");
            }
            id
        })
        .collect();
    let mut sites = SiteRegistry::new();
    sites.create("feed.example", 2);
    Host {
        platform: p,
        sites,
        users,
    }
}

/// One batch simulation: the engine's shard count, session shape and
/// seed. Every other engine setting keeps its default.
#[derive(Debug, Clone, Copy)]
pub struct BatchSpec {
    pub shards: usize,
    pub views_per_day: f64,
    pub days: u64,
    pub seed: u64,
}

impl BatchSpec {
    fn engine(&self) -> Engine {
        Engine::new(EngineConfig {
            shards: self.shards,
            session: SessionConfig {
                views_per_user_per_day: self.views_per_day,
                days: self.days,
            },
            seed: self.seed,
            ..EngineConfig::default()
        })
    }
}

/// What a batch run produced, as the correctness gate compares it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchOutput {
    pub page_views: u64,
    pub opportunities: u64,
    pub impressions: u64,
    pub pixel_fires: u64,
    pub ticks: u64,
    /// Gross invoiced micros per account, in account order.
    pub invoices: Vec<i64>,
    pub log_len: usize,
    /// Receipt-chain heads as `(chain, head, count)`.
    pub heads: Vec<(u32, u64, u64)>,
}

fn heads_of(heads: &[LedgerHead]) -> Vec<(u32, u64, u64)> {
    heads.iter().map(|h| (h.chain, h.head, h.count)).collect()
}

fn output(p: &Platform, report: &EngineReport, ledger: Option<&ReceiptLedger>) -> BatchOutput {
    let mut accounts: Vec<_> = p.campaigns.campaigns().map(|c| c.account).collect();
    accounts.sort();
    accounts.dedup();
    BatchOutput {
        page_views: report.page_views,
        opportunities: report.opportunities,
        impressions: report.impressions,
        pixel_fires: report.pixel_fires,
        ticks: report.ticks,
        invoices: accounts
            .into_iter()
            .map(|a| p.invoice(a).gross.as_micros())
            .collect(),
        log_len: p.log.len(),
        heads: ledger.map(|l| heads_of(&l.heads())).unwrap_or_default(),
    }
}

/// `Engine::run`: the plain batch simulation.
pub fn engine_run(host: &mut Host, spec: &BatchSpec) -> BatchOutput {
    let out = spec.engine().run(
        &mut host.platform,
        &host.sites,
        &host.users,
        &BTreeSet::new(),
    );
    output(&host.platform, &out.report, out.ledger.as_ref())
}

/// The batch simulation with a checkpoint frame every tick: a full base
/// every `base_every`-th frame, deltas in between.
pub fn engine_run_with_frames(
    host: &mut Host,
    spec: &BatchSpec,
    base_every: u64,
) -> Result<(BatchOutput, Vec<Frame>), String> {
    let options = ResilienceOptions {
        checkpoint_every_ticks: 1,
        delta_base_every: base_every,
        ..ResilienceOptions::default()
    };
    let out = spec
        .engine()
        .run_resilient(
            &mut host.platform,
            &host.sites,
            &host.users,
            &BTreeSet::new(),
            &options,
        )
        .map_err(|e| e.to_string())?;
    Ok((
        output(
            &host.platform,
            &out.outcome.report,
            out.outcome.ledger.as_ref(),
        ),
        out.frames,
    ))
}

pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    frame.to_bytes()
}

pub fn decode_frame(bytes: &[u8]) -> Result<Frame, String> {
    Frame::from_bytes(bytes).map_err(|e| e.to_string())
}

/// Folds a frame chain and finishes the run from it on `host`, which
/// must be freshly built from the same population and seed.
pub fn resume_from_frames(
    host: &mut Host,
    spec: &BatchSpec,
    frames: &[Frame],
) -> Result<BatchOutput, String> {
    let out = spec
        .engine()
        .resume_from_frames(
            &mut host.platform,
            &host.sites,
            &host.users,
            &BTreeSet::new(),
            &ResilienceOptions::default(),
            frames,
        )
        .map_err(|e| e.to_string())?;
    Ok(output(
        &host.platform,
        &out.outcome.report,
        out.outcome.ledger.as_ref(),
    ))
}

/// Flips the state digest a delta frame carries (a test of the gate).
#[cfg(test)]
pub fn tamper_digest(frame: &mut Frame) -> bool {
    match frame {
        Frame::Delta(d) => {
            d.digest ^= 1;
            true
        }
        Frame::Full(_) => false,
    }
}

/// The receipt-chain heads recomputed from the host's impression log.
pub fn recomputed_heads(host: &Host, seed: u64, tick_ms: u64) -> Vec<(u32, u64, u64)> {
    heads_of(&receipts_from_impressions(seed, tick_ms, host.platform.log.all()).heads())
}

/// The engine's tick length for `spec` (the ledger buckets receipts by it).
pub fn tick_ms(spec: &BatchSpec) -> u64 {
    spec.engine().config().tick_ms
}

/// The paper's delivery contract on up to `samples` randomly drawn
/// impressions: the delivered ad's targeting spec, evaluated by the
/// expression-tree oracle, matches the user it was shown to. Returns the
/// number of impressions checked.
pub fn check_delivery_contract(
    host: &Host,
    samples: usize,
    rng: &mut StdRng,
) -> Result<usize, String> {
    let p = &host.platform;
    let log = p.log.all();
    if log.is_empty() {
        return Ok(0);
    }
    for _ in 0..samples {
        let imp = &log[rng.gen_range(0..log.len())];
        let ad = p.campaigns.ad(imp.ad).map_err(|e| e.to_string())?;
        let profile = p.profiles.get(imp.user).map_err(|e| e.to_string())?;
        if !ad.targeting.matches(profile, &p.audiences) {
            return Err(format!(
                "ad {} was delivered to user {} outside its targeting",
                imp.ad, imp.user
            ));
        }
    }
    Ok(samples)
}

/// The batch tick driven from outside, one public layer call at a time,
/// with a span around each call. Reproduces the fault-free
/// `Engine::run` (and, with `base_every`, the delta-checkpoint cadence of
/// `engine_run_with_frames`) byte for byte, but runs each tick's phases
/// one after another so no two spans overlap.
///
/// With `resume` set to a fresh host and a prefix length, that many of
/// the run's encoded frames are then decoded, folded and resumed on the
/// host. `replay_users` users per tick get their page views replayed
/// through the decide sublayers (see [`replay_decides`]).
pub fn step_run(
    host: &mut Host,
    spec: &BatchSpec,
    base_every: Option<u64>,
    resume: Option<(&mut Host, usize)>,
    replay_users: usize,
    rng: &mut StdRng,
    spans: &mut Spans,
) -> Result<Stepped, String> {
    let start = Instant::now();
    let engine = spec.engine();
    let cfg = engine.config();
    let (seed, session, tick_ms) = (cfg.seed, cfg.session, cfg.tick_ms);
    let horizon = session.days * DAY_MS;
    let (platform, sites, users) = (&mut host.platform, &host.sites, &host.users);
    let site_ids = sites.ids();
    let no_extensions = BTreeSet::new();
    let plan = ShardPlan::partition(users, cfg.shards);
    let cap = platform.config.frequency_cap;
    spans.shards = cfg.shards as u64;

    let t = Instant::now();
    let first_end = tick_ms.min(horizon);
    let mut shards: Vec<ShardState> = std::thread::scope(|s| {
        let handles: Vec<_> = plan
            .shards()
            .iter()
            .enumerate()
            .map(|(index, shard_users)| {
                let (site_ids, no_extensions) = (&site_ids, &no_extensions);
                s.spawn(move || {
                    let mut shard = ShardState::new(
                        index,
                        shard_users,
                        no_extensions,
                        site_ids,
                        &session,
                        seed,
                        cap,
                    );
                    shard.prefetch_sessions(SimTime(first_end));
                    shard
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard construction does not panic"))
            .collect()
    });
    spans.session_gen_ns += since(t);

    let mut ledger = ReceiptLedger::commitment_only(seed, tick_ms);
    let mut telemetry = Telemetry::disabled();
    let mut exhausted = BTreeSet::new();
    let mut report = EngineReport {
        users: users.len() as u64,
        shards: cfg.shards as u64,
        ..EngineReport::default()
    };
    let echo = ConfigEcho {
        shards: cfg.shards as u64,
        seed,
        tick_ms,
        users: users.len() as u64,
        days: session.days,
        views_bits: session.views_per_user_per_day.to_bits(),
    };
    let mut tracker = base_every.map(|_| DeltaTracker::new(cfg.shards));
    let mut frame_bytes: Vec<Vec<u8>> = Vec::new();
    let mut log_mark = 0usize;
    let mut tick_start = 0u64;
    while tick_start < horizon {
        let tick_end = (tick_start + tick_ms).min(horizon);
        let t = Instant::now();
        let budget = platform.billing.budget_snapshot();
        spans.snapshot_ns += since(t);
        spans.snapshots += 1;

        if replay_users > 0 {
            let views = sample_page_views(
                users,
                &site_ids,
                &session,
                seed,
                (tick_start, tick_end),
                replay_users,
                rng,
            );
            replay_decides(platform, &budget, &views, rng, &mut spans.replay);
        }

        let t = Instant::now();
        let shared: &Platform = platform;
        let ticked: Vec<(ShardBatch, u64)> = std::thread::scope(|s| {
            let handles: Vec<_> = shards
                .iter_mut()
                .map(|shard| {
                    let (budget, sites) = (&budget, &*sites);
                    s.spawn(move || {
                        let t = Instant::now();
                        let batch = shard.run_tick(
                            shared,
                            budget,
                            sites,
                            SimTime(tick_end),
                            TickProbe::off(),
                        );
                        (batch, since(t))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a shard tick does not panic"))
                .collect()
        });
        spans.shard_scope_ns += since(t);
        spans.shard_tick_ns += ticked.iter().map(|(_, ns)| ns).sum::<u64>();
        spans.shard_crit_ns += ticked.iter().map(|(_, ns)| *ns).max().unwrap_or(0);

        let mut events = Vec::with_capacity(ticked.len());
        for (batch, _) in ticked {
            report.page_views += batch.page_views;
            report.opportunities += batch.stats.opportunities;
            platform.stats.opportunities += batch.stats.opportunities;
            platform.stats.won += batch.stats.won;
            platform.stats.lost_to_background += batch.stats.lost_to_background;
            platform.stats.unfilled += batch.stats.unfilled;
            spans.session_gen_events += batch.page_views;
            if let Some(tracker) = tracker.as_mut() {
                let t = Instant::now();
                for event in &batch.events {
                    if let ShardEvent::Impression { pending, .. } = event {
                        tracker.note_shard_freq(batch.shard, (pending.ad, pending.user));
                    }
                }
                spans.capture_ns += since(t);
            }
            events.push(batch.events);
        }

        let t = Instant::now();
        let merged = merge_batches(events).map_err(|e| e.to_string())?;
        spans.merge_ns += since(t);
        spans.merge_events += merged.len() as u64;

        let t = Instant::now();
        let fold = fold_tick_events(
            platform,
            merged,
            SimTime(tick_end),
            &mut telemetry,
            &mut exhausted,
            None,
        );
        spans.fold_ns += since(t);
        spans.fold_impressions += fold.impressions;
        report.pixel_fires += fold.pixel_fires;
        report.impressions += fold.impressions;
        report.ticks += 1;

        let t = Instant::now();
        let log = platform.log.all();
        for imp in &log[log_mark..] {
            ledger.append(imp.user, imp.ad, imp.spec_digest, imp.at, imp.price);
        }
        spans.receipts += (log.len() - log_mark) as u64;
        log_mark = log.len();
        spans.ledger_ns += since(t);

        if let (Some(every), Some(tracker)) = (base_every, tracker.as_mut()) {
            let t = Instant::now();
            let head = DeltaHead {
                config: echo.clone(),
                next_tick_start: tick_end,
                report: counters(&report),
                exhausted: exhausted.iter().copied().collect(),
                faults: FaultReport::default(),
                ledger: ledger.heads(),
            };
            let frame = if (frame_bytes.len() as u64).is_multiple_of(every) {
                for shard in shards.iter_mut() {
                    let _ = shard.take_dirty_cursors();
                }
                let cp = EngineCheckpoint {
                    config: head.config,
                    next_tick_start: head.next_tick_start,
                    report: head.report,
                    exhausted: head.exhausted,
                    faults: head.faults,
                    platform: platform.export_state(),
                    shards: shards.iter().map(ShardState::export_cursors).collect(),
                    ledger: head.ledger,
                };
                tracker.rebase(&cp, platform);
                Frame::Full(cp)
            } else {
                let sources = shards
                    .iter_mut()
                    .enumerate()
                    .map(|(s, shard)| {
                        let freq = tracker
                            .drain_shard_freq_dirty(s)
                            .into_iter()
                            .map(|key| (key, shard.freq_count(key.0, key.1)))
                            .collect();
                        ShardDeltaSource {
                            index: s as u64,
                            cursors: shard.take_dirty_cursors(),
                            freq,
                            // No workload runs extension users, so no
                            // extension log grows.
                            ext: Vec::new(),
                        }
                    })
                    .collect();
                let delta = tracker.take_delta(head, platform, sources);
                spans.dirty_slots += dirty_slots(&delta);
                Frame::Delta(delta)
            };
            spans.capture_ns += since(t);
            let t = Instant::now();
            let bytes = frame.to_bytes();
            spans.encode_ns += since(t);
            spans.frames += 1;
            spans.frame_bytes += bytes.len() as u64;
            frame_bytes.push(bytes);
        }

        if tick_end < horizon {
            let until = SimTime((tick_end + tick_ms).min(horizon));
            let t = Instant::now();
            std::thread::scope(|s| {
                for shard in shards.iter_mut() {
                    s.spawn(move || shard.prefetch_sessions(until));
                }
            });
            spans.session_gen_ns += since(t);
        }
        tick_start = tick_end;
    }
    let uninterrupted = output(platform, &report, Some(&ledger));

    let resumed = match resume {
        Some((fresh, prefix_len)) => {
            let t = Instant::now();
            let prefix = frame_bytes
                .iter()
                .take(prefix_len)
                .map(|b| decode_frame(b))
                .collect::<Result<Vec<_>, _>>()?;
            spans.resume_decode_ns += since(t);
            let t = Instant::now();
            let checkpoint = fold_frames(&prefix).map_err(|e| e.to_string())?;
            spans.resume_fold_ns += since(t);
            let t = Instant::now();
            let out = engine
                .resume_from(
                    &mut fresh.platform,
                    &fresh.sites,
                    &fresh.users,
                    &BTreeSet::new(),
                    &ResilienceOptions::default(),
                    &checkpoint,
                )
                .map_err(|e| e.to_string())?;
            spans.resume_ns += since(t);
            Some(output(
                &fresh.platform,
                &out.outcome.report,
                out.outcome.ledger.as_ref(),
            ))
        }
        None => None,
    };
    spans.wall_ns += since(start).saturating_sub(spans.replay.wall_ns);
    Ok(Stepped {
        output: uninterrupted,
        resumed,
        frames: frame_bytes,
    })
}

/// What [`step_run`] produced.
pub struct Stepped {
    pub output: BatchOutput,
    /// The resumed run's output, when a resume host was given.
    pub resumed: Option<BatchOutput>,
    /// Every checkpoint frame, encoded.
    pub frames: Vec<Vec<u8>>,
}

fn counters(r: &EngineReport) -> ReportCounters {
    ReportCounters {
        users: r.users,
        shards: r.shards,
        ticks: r.ticks,
        page_views: r.page_views,
        pixel_fires: r.pixel_fires,
        opportunities: r.opportunities,
        impressions: r.impressions,
    }
}

/// Slots a delta frame rewrites (the engine's `checkpoint.dirty_slots`).
fn dirty_slots(d: &DeltaFrame) -> u64 {
    let audience: usize = d.audience_adds.iter().map(|(_, m)| m.len()).sum();
    let shards: usize = d
        .shards
        .iter()
        .map(|s| s.users.len() + s.freq.len() + s.ext.len())
        .sum();
    (d.billing_accounts.len()
        + d.billing_campaigns.len()
        + d.billing_ads.len()
        + d.billing_links.len()
        + d.freq.len()
        + audience
        + d.facets.len()
        + shards) as u64
}

/// The page views `count` randomly drawn users make inside `window`:
/// the same per-user-day streams the shards consume.
fn sample_page_views(
    users: &[UserId],
    site_ids: &[SiteId],
    session: &SessionConfig,
    seed: u64,
    window: (u64, u64),
    count: usize,
    rng: &mut StdRng,
) -> Vec<(UserId, SimTime)> {
    let day = window.0 / DAY_MS;
    let mut views = Vec::new();
    for _ in 0..count {
        let user = users[rng.gen_range(0..users.len())];
        for event in SessionSchedule::generate_day_for_user(user, site_ids, session, seed, day) {
            let BrowsingEvent::PageView { at, .. } = event;
            if (window.0..window.1).contains(&at.millis()) {
                views.push((user, at));
            }
        }
    }
    views
}

/// Replays `views` through the decide sublayers, timing each public call
/// on its own: index candidate selection, compiled targeting evaluation
/// of those candidates, the whole eligibility filter, the auction over
/// the eligible bids, and the full decision. Reads the tick's budget
/// snapshot and the platform's folded frequency caps, and draws auction
/// randomness from the benchmark's own `rng`, so the run it samples is
/// not perturbed.
pub fn replay_decides(
    platform: &Platform,
    budget: &BudgetSnapshot,
    views: &[(UserId, SimTime)],
    rng: &mut StdRng,
    stats: &mut Replay,
) {
    let start = Instant::now();
    let (campaigns, audiences) = (&platform.campaigns, &platform.audiences);
    let mut scratch = DeliveryScratch::new();
    let mut candidates = Vec::new();
    for &(user, at) in views {
        let profile = platform.profiles.get(user).expect("replayed users exist");

        let t = Instant::now();
        campaigns
            .index()
            .candidates_into(profile, audiences, &mut candidates);
        stats.select_ns += since(t);
        stats.candidates += candidates.len() as u64;

        let t = Instant::now();
        let hits = candidates
            .iter()
            .filter(|&&ad| campaigns.compiled_matches(ad, profile, audiences) == Some(true))
            .count();
        stats.eval_ns += since(t);
        black_box(hits);
        stats.evals += candidates.len() as u64;

        let t = Instant::now();
        black_box(eligible_bids_traced_into(
            profile,
            campaigns,
            audiences,
            &platform.suspended,
            budget,
            &platform.freq,
            &mut scratch,
        ));
        stats.eligible_ns += since(t);

        let (bids, _) = eligible_bids_traced(
            profile,
            campaigns,
            audiences,
            &platform.suspended,
            budget,
            &platform.freq,
        );
        let t = Instant::now();
        black_box(run_auction_traced(&bids, &platform.config.auction, rng));
        stats.auction_ns += since(t);
        stats.bids += bids.len() as u64;

        let t = Instant::now();
        black_box(
            platform
                .decide_browse_traced_with_scratch(
                    user,
                    at,
                    budget,
                    &platform.freq,
                    rng,
                    &mut scratch,
                )
                .expect("replayed users exist"),
        );
        stats.decide_ns += since(t);
        stats.decisions += 1;
    }
    stats.wall_ns += since(start);
}

/// Replays `views` (drawn from a serving run's schedule) against the
/// host's state after the run, under a fresh budget snapshot whose cost
/// is returned.
pub fn replay_after_serving(
    host: &Host,
    views: &[(u32, u64)],
    rng: &mut StdRng,
    stats: &mut Replay,
) -> u64 {
    let t = Instant::now();
    let budget = host.platform.billing.budget_snapshot();
    let snapshot_ns = since(t);
    let views: Vec<(UserId, SimTime)> = views
        .iter()
        .map(|&(user, at)| (host.users[user as usize], SimTime(at)))
        .collect();
    replay_decides(&host.platform, &budget, &views, rng, stats);
    snapshot_ns
}

/// The serving front end's configuration knobs the benchmark sets.
#[derive(Debug, Clone, Copy)]
pub struct ServeSpec {
    pub shards: usize,
    pub tick_ms: u64,
    pub horizon_ms: u64,
    pub seed: u64,
    pub max_batch: usize,
    pub max_delay: Duration,
    /// Record into a live telemetry handle (the traced run), for the
    /// micro-batch size histogram.
    pub record: bool,
}

/// What a serving run reported.
#[derive(Debug, Clone)]
pub struct ServeOutput {
    pub requests: u64,
    pub served: u64,
    pub shed: u64,
    pub ticks: u64,
    pub heads: Vec<(u32, u64, u64)>,
    /// In-program latency (queue wait + decide), p50 and p99, in ns.
    pub inprog_ns: [u64; 2],
    /// Median micro-batch size (0 unless recorded).
    pub batch_size_p50: u64,
}

/// The generator's view of a running front end.
pub struct Submitter<'a> {
    frontend: &'a Frontend,
    users: &'a [UserId],
    sites: &'a [SiteId],
}

impl Target for Submitter<'_> {
    type Ticket = treads_serving::Ticket;

    fn submit(&self, arrival: &Arrival) -> Self::Ticket {
        self.frontend.submit(OpportunityRequest {
            user: self.users[arrival.user as usize],
            site: self.sites[arrival.site as usize],
            at: SimTime(arrival.at_ms),
        })
    }

    fn wait(ticket: Self::Ticket) -> bool {
        ticket.wait().is_served()
    }
}

/// Runs `client` against a serving front end over `host` with admission
/// wide open, then closes every remaining tick.
pub fn serve<T>(
    host: &mut Host,
    spec: &ServeSpec,
    client: impl FnOnce(&Submitter<'_>) -> T,
) -> (ServeOutput, T) {
    let config = ServingConfig {
        shards: spec.shards,
        tick_ms: spec.tick_ms,
        horizon_ms: spec.horizon_ms,
        seed: spec.seed,
        max_batch: spec.max_batch,
        max_delay: spec.max_delay,
        queue_watermark: u64::MAX,
        trace: TraceConfig::disabled(),
        ..ServingConfig::default()
    };
    let mut telemetry = if spec.record {
        Telemetry::new()
    } else {
        Telemetry::disabled()
    };
    let site_ids = host.sites.ids();
    let (outcome, result) = ServingEngine::new(config).serve_with_telemetry(
        &mut host.platform,
        &host.sites,
        &BTreeSet::new(),
        &ResilienceOptions::default(),
        &mut telemetry,
        |frontend| {
            client(&Submitter {
                frontend,
                users: &host.users,
                sites: &site_ids,
            })
        },
    );
    let r = &outcome.report;
    let out = ServeOutput {
        requests: r.requests,
        served: r.served,
        shed: r.shed,
        ticks: r.ticks,
        heads: outcome
            .ledger
            .as_ref()
            .map(|l| heads_of(&l.heads()))
            .unwrap_or_default(),
        inprog_ns: [r.latency.quantile(0.5), r.latency.quantile(0.99)],
        batch_size_p50: telemetry
            .metrics()
            .histogram("serving.batch_size")
            .map_or(0, |h| h.quantile(0.5)),
    };
    (out, result)
}
