//! The tick loop: snapshot → parallel shards → deterministic merge —
//! supervised for fault injection, crash recovery, and checkpoint/resume.

use std::collections::{BTreeMap, BTreeSet};

use adplatform::audience::AudienceStore;
use adplatform::billing::BillingLedger;
use adplatform::campaign::CampaignStore;
use adplatform::delivery::{charge_impressions, FrequencyCaps};
use adplatform::pixel::PixelRegistry;
use adplatform::profile::ProfileStore;
use adplatform::reporting::ImpressionLog;
use adplatform::Platform;
use adsim_types::{CampaignId, Error, SimTime, UserId};
use parking_lot::Mutex;
use treads_resilience::checkpoint::{
    ConfigEcho, EngineCheckpoint, ReportCounters, ShardCheckpoint,
};
use treads_resilience::delta::{
    CheckpointFrame, DeltaFrame, DeltaHead, DeltaTracker, ShardDeltaSource,
};
use treads_resilience::ledger::{receipts_from_impressions, ReceiptLedger};
use treads_resilience::{FaultPlan, FaultReport};
use treads_telemetry::{
    span, FlightEvent, FlightKind, RequestTrace, Telemetry, TraceEventKind, TraceId, SHED_SEQ,
};
use treads_workload::ShardPlan;
use websim::{ExtensionLog, SessionConfig, SiteRegistry};

use crate::event::ShardEvent;
use crate::merge::merge_batches;
use crate::shard::{CrashPoint, CrashSignal, ShardBatch, ShardState, TickProbe};

/// Milliseconds per simulated day.
pub const DAY_MS: u64 = 86_400_000;

/// Engine parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Number of shards (and worker threads) to run.
    pub shards: usize,
    /// Browsing-session shape (views per user per day, horizon in days).
    pub session: SessionConfig,
    /// Tick length in simulated milliseconds. Budget snapshots and
    /// audience updates refresh at tick boundaries; defaults to one day.
    pub tick_ms: u64,
    /// Master seed; every user derives private substreams from it.
    pub seed: u64,
    /// Emit a signed [`ReceiptLedger`] delivery receipt for every folded
    /// impression. Receipts are appended at the single-writer fold, so
    /// chains are byte-identical across shard counts; chain heads are
    /// committed into every checkpoint frame taken.
    pub ledger: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            shards: 1,
            session: SessionConfig::default(),
            tick_ms: DAY_MS,
            seed: 42,
            ledger: true,
        }
    }
}

/// Counters from one engine run: the same struct every checkpoint frame
/// carries, so a frame copies the report whole and a resume restores it.
pub type EngineReport = ReportCounters;

/// Everything an engine run produces beyond the platform mutations.
#[derive(Debug)]
pub struct EngineOutcome {
    /// Run counters.
    pub report: EngineReport,
    /// Extension logs of the users who ran the Treads extension.
    pub extensions: BTreeMap<UserId, ExtensionLog>,
    /// The hash-chained delivery-receipt ledger the fold emitted
    /// (`None` when [`EngineConfig::ledger`] is off).
    pub ledger: Option<ReceiptLedger>,
}

/// Supervisor knobs for a resilient run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResilienceOptions {
    /// The fault schedule to inject (empty by default).
    pub faults: FaultPlan,
    /// Re-execution attempts the supervisor grants a crashed shard tick
    /// before abandoning its work as [`treads_resilience::LostWork`].
    pub max_retries_per_shard_tick: u32,
    /// Take a [`CheckpointFrame`] after every N completed ticks
    /// (0 = never).
    pub checkpoint_every_ticks: u64,
    /// Frame 0, and every `delta_base_every`-th frame after it, is a full
    /// base ([`CheckpointFrame::Full`]); the frames between are
    /// [`treads_resilience::DeltaFrame`]s carrying only the slots mutated
    /// since the previous frame (see [`ResilientOutcome::frames`]).
    /// 0 and 1 both make every frame a base.
    pub delta_base_every: u64,
}

impl Default for ResilienceOptions {
    fn default() -> Self {
        Self {
            faults: FaultPlan::new(),
            max_retries_per_shard_tick: 3,
            checkpoint_every_ticks: 0,
            delta_base_every: 0,
        }
    }
}

/// An [`EngineOutcome`] plus the supervisor's fault accounting and the
/// checkpoint frames taken along the way.
#[derive(Debug)]
pub struct ResilientOutcome {
    /// The simulation outcome.
    pub outcome: EngineOutcome,
    /// What was injected, recovered, and lost.
    pub faults: FaultReport,
    /// Checkpoint frames taken at tick boundaries, in tick order, on the
    /// [`ResilienceOptions`] cadence (empty when
    /// `checkpoint_every_ticks` is 0). Fold any prefix ending at frame
    /// `i` with [`treads_resilience::fold_frames`] to recover the full
    /// [`EngineCheckpoint`] at that tick; a base frame is that
    /// checkpoint itself.
    pub frames: Vec<CheckpointFrame>,
}

/// Tally from folding one tick's merged events into the platform.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TickFold {
    /// Pixel fires successfully applied.
    pub pixel_fires: u64,
    /// Impressions billed and logged.
    pub impressions: u64,
}

/// The fewest pixel fires, and the fewest impressions, a tick must carry
/// before [`fold_tick_events`] folds its two store groups on two threads.
///
/// A scope that spawns and joins one thread costs ~20 µs (median of
/// 2,000) on a 2-thread host, and a folded event ~0.1–0.2 µs per store
/// group, so a tick with 1,000 of each saves well over the thread's
/// cost. Smaller ticks stay inline: in the batch engine the fold shares
/// the host with the shards' prefetch threads, and `batch-broad`'s ticks
/// 2–5 carry ~10k pixel fires beside at most ~155 impressions, too few
/// for the impression half to pay for the thread.
const FOLD_SPLIT_MIN: usize = 1_000;

/// Folds one tick's canonically-merged events into the platform: the
/// single writer step of the bulk-synchronous tick.
///
/// Applies every event in order (pixel fires register audience membership,
/// impressions charge billing / bump global frequency counters / append to
/// the impression log), journals `ImpressionBilled` flight events and
/// first-crossing `BudgetExhausted` transitions into `telemetry`
/// (`exhausted` carries the already-journaled campaign set across ticks),
/// advances the platform clock to `tick_end`, and counts
/// `engine.pixel_fires` / `engine.impressions` / `engine.ticks`.
///
/// The fold is a few passes over the merged events, each walking them in
/// canonical order and writing its own stores. Two passes write what the
/// next tick's decisions read, and [`publish_tick`] runs them:
///
/// * the charge pass: every impression's billing charge, which the next
///   tick's budget snapshot freezes;
/// * the join pass: every valid pixel fire's pixel-audience joins.
///
/// The others only journal, and [`journal_tick`] runs them: the
/// impression log, receipts and `ImpressionBilled` events; the pixel
/// journal and the global frequency counts; then the `BudgetExhausted`
/// events and the counters. `treads-serving`'s applier publishes at its
/// tick-close barrier and journals after releasing the front end. This
/// function runs the same passes back to back in two groups that share no
/// store:
///
/// * the join pass, then the pixel journal and frequency counts;
/// * the charge pass, then the impression log, receipts and flight events.
///
/// A journal pass reads only the events and what a publish pass handed it
/// (which fires came from unknown users, which campaigns crossed their
/// budget; an impression's price is a function of its clearing CPM alone),
/// so each store sees the same operations in the same order however the
/// passes interleave, and the folded bytes equal a one-event-at-a-time
/// fold. A tick carrying at least 1,000 pixel fires and as many
/// impressions (`FOLD_SPLIT_MIN`) runs the first group on a scoped helper
/// thread while the calling thread runs the second; the calling thread
/// first reserves the room the helper's journal and frequency map grow
/// into. Smaller ticks run both groups on the calling thread. The budget
/// check, its journal, the counters and the clock advance run after both
/// groups.
///
/// This is the **only** code path that mutates shared platform state at a
/// tick boundary; the batch engine's supervisor folds through it, and
/// `treads-serving`'s applier through its two halves, which is what makes
/// a serving run with a fixed arrival schedule byte-identical to the
/// batch engine fed the same opportunity stream.
///
/// When `ledger` is supplied, every applied impression also appends a
/// signed [`treads_resilience::DeliveryReceipt`] — in this same canonical
/// merge order, so receipt chains are byte-identical across shard counts
/// and between the batch engine and the serving applier.
pub fn fold_tick_events(
    platform: &mut Platform,
    merged: Vec<ShardEvent>,
    tick_end: SimTime,
    telemetry: &mut Telemetry,
    exhausted: &mut BTreeSet<CampaignId>,
    mut ledger: Option<&mut ReceiptLedger>,
) -> TickFold {
    let Platform {
        profiles,
        pixels,
        audiences,
        campaigns,
        billing,
        freq,
        log,
        clock,
        ..
    } = platform;
    let impressions = impression_count(&merged);
    let fires = merged.len() - impressions;
    if let Some(ledger) = ledger.as_deref_mut() {
        // Room for this tick's receipts before the appends below.
        ledger.reserve(impressions as u64);
    }
    let split = fires.min(impressions) >= FOLD_SPLIT_MIN;
    if split {
        // The helper thread then grows neither store.
        pixels.reserve(fires);
        freq.reserve(impressions);
    }
    let recording = telemetry.is_enabled();
    let receipts = ledger.is_some();
    let mut audience_group = || {
        let unknown_users = join_pass(profiles, pixels, audiences, &merged);
        fire_journal_pass(pixels, freq, &merged, &unknown_users)
    };
    let charge_group = || {
        let charged = charge_pass(billing, &merged, recording);
        impression_journal_pass(log, ledger, telemetry, &merged);
        charged
    };
    let (pixel_fires, charged) = if split {
        // The scope joins the helper, and a helper panic fails the scope
        // as a panicking shard fails the engine tick scope.
        crossbeam::scope(|s| {
            let helper = s.spawn(|_| audience_group());
            let charged = charge_group();
            (helper.join().expect("fold helper"), charged)
        })
        .expect("fold scope")
    } else {
        (audience_group(), charge_group())
    };
    let crossed = newly_exhausted(campaigns, billing, charged, exhausted);
    clock.advance_to(tick_end);
    let fold = TickFold {
        pixel_fires,
        impressions: impressions as u64,
    };
    close_journal(telemetry, fold, receipts, &crossed, tick_end);
    fold
}

/// The stores only the journal passes write, which no decide reads: the
/// impression log, the pixel registry (whose fire journal grows) and the
/// global frequency counters.
///
/// `treads-serving`'s applier takes them from the platform for a whole
/// run ([`TickJournals::take`]), so it can journal a tick after releasing
/// the front end without the lock its workers decide under, and hands
/// them back when the run ends ([`TickJournals::restore`]).
#[derive(Debug)]
pub struct TickJournals {
    log: ImpressionLog,
    pixels: PixelRegistry,
    freq: FrequencyCaps,
}

impl TickJournals {
    /// Moves the journal stores out of `platform`, leaving empty ones.
    pub fn take(platform: &mut Platform) -> Self {
        Self {
            log: std::mem::take(&mut platform.log),
            pixels: std::mem::take(&mut platform.pixels),
            freq: std::mem::take(&mut platform.freq),
        }
    }

    /// Moves the journal stores back into `platform`.
    pub fn restore(self, platform: &mut Platform) {
        platform.log = self.log;
        platform.pixels = self.pixels;
        platform.freq = self.freq;
    }
}

/// What a tick's publish passes hand its journal passes.
#[derive(Debug)]
#[must_use = "journal the tick with `journal_tick`"]
pub struct TickPublish {
    tick_end: SimTime,
    /// Merged-event positions of the fires from users the profile store
    /// does not hold: the pixel journal skips them.
    unknown_users: Vec<usize>,
    /// Campaigns whose budget this tick's charges exhausted, in id order.
    crossed: Vec<CampaignId>,
}

/// The publish half of [`fold_tick_events`]: what the next tick's
/// decisions read. Charges every impression to billing, joins every valid
/// pixel fire's pixel audiences (checking the pixel against `journals`'
/// registry), finds the campaigns the charges took past their budget
/// (only while `recording`, as the fold does; `exhausted` gains them) and
/// advances the clock to `tick_end`. Refreeze the budget snapshot after
/// it, then run [`journal_tick`] on the same events before the next
/// tick's publish.
pub fn publish_tick(
    platform: &mut Platform,
    journals: &TickJournals,
    merged: &[ShardEvent],
    tick_end: SimTime,
    recording: bool,
    exhausted: &mut BTreeSet<CampaignId>,
) -> TickPublish {
    let charged = charge_pass(&mut platform.billing, merged, recording);
    let unknown_users = join_pass(
        &platform.profiles,
        &journals.pixels,
        &mut platform.audiences,
        merged,
    );
    let crossed = newly_exhausted(&platform.campaigns, &platform.billing, charged, exhausted);
    platform.clock.advance_to(tick_end);
    TickPublish {
        tick_end,
        unknown_users,
        crossed,
    }
}

/// The journal half of [`fold_tick_events`], after [`publish_tick`] on
/// the same `merged` events: appends the impression log, receipts and
/// `ImpressionBilled` events, the pixel journal and the global frequency
/// counts into `journals`, then journals the `BudgetExhausted` crossings
/// and counts the tick.
pub fn journal_tick(
    journals: &mut TickJournals,
    merged: &[ShardEvent],
    publish: TickPublish,
    mut ledger: Option<&mut ReceiptLedger>,
    telemetry: &mut Telemetry,
) -> TickFold {
    let impressions = impression_count(merged) as u64;
    if let Some(ledger) = ledger.as_deref_mut() {
        ledger.reserve(impressions);
    }
    let receipts = ledger.is_some();
    impression_journal_pass(&mut journals.log, ledger, telemetry, merged);
    let pixel_fires = fire_journal_pass(
        &mut journals.pixels,
        &mut journals.freq,
        merged,
        &publish.unknown_users,
    );
    let fold = TickFold {
        pixel_fires,
        impressions,
    };
    close_journal(
        telemetry,
        fold,
        receipts,
        &publish.crossed,
        publish.tick_end,
    );
    fold
}

fn impression_count(merged: &[ShardEvent]) -> usize {
    merged
        .iter()
        .filter(|e| matches!(e, ShardEvent::Impression { .. }))
        .count()
}

/// Publish: charges every impression to billing, totalled per ad
/// ([`charge_impressions`]). While `recording`, returns the campaigns
/// charged, the only ones that can have crossed their budget.
fn charge_pass(
    billing: &mut BillingLedger,
    merged: &[ShardEvent],
    recording: bool,
) -> BTreeSet<CampaignId> {
    let charged = charge_impressions(
        billing,
        merged.iter().filter_map(|event| match event {
            ShardEvent::Impression { pending, .. } => Some(pending),
            ShardEvent::PixelFire { .. } => None,
        }),
    );
    if recording {
        charged
    } else {
        BTreeSet::new()
    }
}

/// Publish: joins each fire's user to the pixel audiences of its pixel,
/// unless the user is unknown or the pixel unregistered (such a fire
/// changes nothing). Returns the positions of the unknown users' fires.
fn join_pass(
    profiles: &ProfileStore,
    pixels: &PixelRegistry,
    audiences: &mut AudienceStore,
    merged: &[ShardEvent],
) -> Vec<usize> {
    let mut unknown_users = Vec::new();
    for (i, event) in merged.iter().enumerate() {
        if let ShardEvent::PixelFire { user, pixel, .. } = *event {
            if profiles.get(user).is_err() {
                unknown_users.push(i);
            } else if pixels.get(pixel).is_ok() {
                audiences.record_pixel_visit(pixel, user);
            }
        }
    }
    unknown_users
}

/// Budget check after the charges: the `charged` campaigns now past their
/// budget that `exhausted` does not hold yet, in id order, each added to
/// it.
fn newly_exhausted(
    campaigns: &CampaignStore,
    billing: &BillingLedger,
    charged: BTreeSet<CampaignId>,
    exhausted: &mut BTreeSet<CampaignId>,
) -> Vec<CampaignId> {
    charged
        .into_iter()
        .filter(|&campaign| {
            campaigns
                .campaign(campaign)
                .is_ok_and(|c| !billing.within_budget(campaign, c.budget))
                && exhausted.insert(campaign)
        })
        .collect()
}

/// Journal: every impression's log record, receipt and, while recording,
/// `ImpressionBilled` flight event.
fn impression_journal_pass(
    log: &mut ImpressionLog,
    mut ledger: Option<&mut ReceiptLedger>,
    telemetry: &mut Telemetry,
    merged: &[ShardEvent],
) {
    let recording = telemetry.is_enabled();
    for event in merged {
        let ShardEvent::Impression {
            user_seq, pending, ..
        } = *event
        else {
            continue;
        };
        let price = pending.price();
        log.record(pending.logged(price));
        if let Some(ledger) = ledger.as_deref_mut() {
            ledger.append(
                pending.user,
                pending.ad,
                pending.spec_digest,
                pending.at,
                price,
            );
        }
        if recording {
            telemetry.record_event(FlightEvent {
                at: pending.at,
                user: pending.user,
                seq: user_seq,
                // The fold runs after the merge erased the page view's
                // starting seq, so it cannot re-derive the request's
                // trace id; see `FlightEvent::trace`.
                trace: 0,
                kind: FlightKind::ImpressionBilled {
                    ad: pending.ad.raw(),
                    campaign: pending.campaign.raw(),
                    account: pending.account.raw(),
                    price_micros: price.as_micros(),
                },
            });
        }
    }
}

/// Journal: records every fire but the `unknown_users` positions in the
/// pixel journal (which rejects unregistered pixels) and bumps every
/// impression's global frequency counter. Returns the fires recorded.
fn fire_journal_pass(
    pixels: &mut PixelRegistry,
    freq: &mut FrequencyCaps,
    merged: &[ShardEvent],
    unknown_users: &[usize],
) -> u64 {
    let mut unknown_users = unknown_users.iter().copied().peekable();
    let mut recorded = 0;
    for (i, event) in merged.iter().enumerate() {
        match *event {
            ShardEvent::PixelFire {
                at, user, pixel, ..
            } => {
                if unknown_users.next_if_eq(&i).is_none() && pixels.record(pixel, user, at).is_ok()
                {
                    recorded += 1;
                }
            }
            ShardEvent::Impression { pending, .. } => freq.bump(pending.ad, pending.user),
        }
    }
    recorded
}

/// Journal, last: a `BudgetExhausted` event per campaign that crossed its
/// budget this tick, and the tick's counters.
fn close_journal(
    telemetry: &mut Telemetry,
    fold: TickFold,
    receipts: bool,
    crossed: &[CampaignId],
    tick_end: SimTime,
) {
    telemetry.count("engine.pixel_fires", fold.pixel_fires);
    telemetry.count("engine.impressions", fold.impressions);
    if receipts {
        telemetry.count("ledger.receipts", fold.impressions);
    }
    for campaign in crossed {
        telemetry.count("delivery.budget_exhaustions", 1);
        telemetry.record_event(FlightEvent {
            at: tick_end,
            user: UserId(0),
            seq: campaign.raw(),
            // Campaign-level: no single request caused it.
            trace: 0,
            kind: FlightKind::BudgetExhausted {
                campaign: campaign.raw(),
            },
        });
    }
    telemetry.count("engine.ticks", 1);
}

/// Registers, at zero, every counter that both run paths — the batch
/// engine and `treads-serving`'s front end — carry in every snapshot, so
/// dashboards and the CI snapshot check can require them in a run that
/// delivers nothing, injects no fault, retains no trace or disables the
/// ledger. `targeting.compiled_evals` stays zero under
/// `EvalMode::Tree`, `targeting.match_sets` counts stage-1 builds, and
/// `targeting.facet_updates` settles to its true value at run end.
/// Each path adds its own names (`checkpoint.*`, `serving.*`) beside
/// these.
pub fn register_run_counters(telemetry: &mut Telemetry) {
    for name in [
        "engine.ticks",
        "engine.page_views",
        "engine.impressions",
        "engine.pixel_fires",
        "faults.injected",
        "faults.recovered",
        "faults.unrecoverable",
        "targeting.compiled_evals",
        "targeting.match_sets",
        "targeting.facet_updates",
        "trace.spans",
        "trace.sampled",
        "trace.dropped",
        "ledger.receipts",
        "ledger.heads_committed",
    ] {
        telemetry.count(name, 0);
    }
}

/// The sharded, deterministic parallel simulation engine.
///
/// Execution is bulk-synchronous: each tick freezes a
/// [`adplatform::billing::BudgetSnapshot`], runs every shard's browsing
/// events for the tick on its own thread against the read-only platform,
/// then merges the shards' event batches in the canonical
/// `(at, user, user_seq)` order and folds them into the platform. Because
/// every input a decision can observe is either frozen per tick or owned
/// per user, the folded state — billing, frequency caps, impression log,
/// audiences — is bit-identical for every shard count.
pub struct Engine {
    config: EngineConfig,
}

impl Engine {
    /// An engine with the given configuration.
    pub fn new(config: EngineConfig) -> Self {
        assert!(config.shards > 0, "engine needs at least one shard");
        assert!(config.tick_ms > 0, "engine needs a positive tick length");
        Self { config }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Simulates `users` browsing `sites` for `config.session.days` days,
    /// auctioning every ad slot they see.
    ///
    /// `extension_users` are the users running the Treads browser
    /// extension; their observed ads come back in the outcome for Tread
    /// decoding. The platform's clock is advanced tick by tick and ends at
    /// the horizon.
    pub fn run(
        &self,
        platform: &mut Platform,
        sites: &SiteRegistry,
        users: &[UserId],
        extension_users: &BTreeSet<UserId>,
    ) -> EngineOutcome {
        let mut telemetry = Telemetry::disabled();
        self.run_with_telemetry(platform, sites, users, extension_users, &mut telemetry)
    }

    /// [`Engine::run`] recording into the caller's `telemetry` handle.
    /// An enabled handle collects per-phase wall-time histograms
    /// (`phase.session_gen_ns`, `phase.auction_ns`, `phase.delivery_ns`,
    /// `phase.merge_ns`, `phase.apply_ns`), per-tick latency
    /// (`engine.tick_ns`), deterministic counters, and the flight journal;
    /// [`Engine::run`] passes a disabled one, so instrumentation overhead
    /// is measurable in a single binary.
    ///
    /// Instrumentation never draws randomness or feeds back into the
    /// simulation, so instrumented and uninstrumented runs produce
    /// bit-identical platform state; and because shard metric registries
    /// merge by addition in shard-index order, the merged counters and
    /// value histograms are also identical across shard counts (only the
    /// `*_ns` wall-time histograms vary run to run). The counters both run
    /// paths carry ([`register_run_counters`]) and the `checkpoint.*`
    /// counters are registered at zero even in a fault-free run.
    pub fn run_with_telemetry(
        &self,
        platform: &mut Platform,
        sites: &SiteRegistry,
        users: &[UserId],
        extension_users: &BTreeSet<UserId>,
        telemetry: &mut Telemetry,
    ) -> EngineOutcome {
        self.run_core(
            platform,
            sites,
            users,
            extension_users,
            telemetry,
            &ResilienceOptions::default(),
            None,
        )
        .expect("a fault-free, non-resumed run cannot fail")
        .outcome
    }

    /// Runs the simulation under the supervisor with `options`' fault
    /// schedule, retry budget, and checkpoint cadence.
    ///
    /// Recoverable faults (crashes within the retry budget, duplicated or
    /// delayed batches) leave the run **byte-identical** to a fault-free
    /// one; unrecoverable crashes degrade gracefully, with the abandoned
    /// work itemized exactly in the returned [`FaultReport`].
    pub fn run_resilient(
        &self,
        platform: &mut Platform,
        sites: &SiteRegistry,
        users: &[UserId],
        extension_users: &BTreeSet<UserId>,
        options: &ResilienceOptions,
    ) -> adsim_types::Result<ResilientOutcome> {
        let mut telemetry = Telemetry::disabled();
        self.run_core(
            platform,
            sites,
            users,
            extension_users,
            &mut telemetry,
            options,
            None,
        )
    }

    /// Resumes a checkpointed run on a **freshly constructed** host: the
    /// same engine config, the same deterministic setup (`platform` as the
    /// driver built it before the original run, `sites`, `users`,
    /// `extension_users`), plus the checkpoint. Produces output
    /// byte-identical to the uninterrupted run from which the checkpoint
    /// was taken.
    ///
    /// Fails with [`Error::InvalidInput`] — before mutating anything —
    /// if the checkpoint's [`ConfigEcho`] does not match this engine and
    /// user set.
    pub fn resume_from(
        &self,
        platform: &mut Platform,
        sites: &SiteRegistry,
        users: &[UserId],
        extension_users: &BTreeSet<UserId>,
        options: &ResilienceOptions,
        checkpoint: &EngineCheckpoint,
    ) -> adsim_types::Result<ResilientOutcome> {
        let mut telemetry = Telemetry::disabled();
        self.run_core(
            platform,
            sites,
            users,
            extension_users,
            &mut telemetry,
            options,
            Some(checkpoint),
        )
    }

    /// [`Engine::resume_from`] for delta mode: folds a frame chain (one
    /// full base plus any number of deltas, as produced in
    /// [`ResilientOutcome::frames`]) back into a full checkpoint and
    /// resumes from it. The fold verifies the chain discipline and each
    /// frame's state digest before anything is mutated; a frame whose
    /// content disagrees with its digest fails here with
    /// [`Error::InvalidInput`]. A slot the delta tracker never noted as
    /// dirty is missing from the frame and its digest alike and is not
    /// caught here: the fold-prefix and resume oracles catch it.
    pub fn resume_from_frames(
        &self,
        platform: &mut Platform,
        sites: &SiteRegistry,
        users: &[UserId],
        extension_users: &BTreeSet<UserId>,
        options: &ResilienceOptions,
        frames: &[CheckpointFrame],
    ) -> adsim_types::Result<ResilientOutcome> {
        let folded = treads_resilience::fold_frames(frames)
            .map_err(|e| Error::invalid(format!("invalid checkpoint frame chain: {e}")))?;
        let mut telemetry = Telemetry::disabled();
        self.run_core(
            platform,
            sites,
            users,
            extension_users,
            &mut telemetry,
            options,
            Some(&folded),
        )
    }

    /// The [`ConfigEcho`] this engine stamps into checkpoints.
    fn config_echo(&self, users: usize) -> ConfigEcho {
        ConfigEcho {
            shards: self.config.shards as u64,
            seed: self.config.seed,
            tick_ms: self.config.tick_ms,
            users: users as u64,
            days: self.config.session.days,
            views_bits: self.config.session.views_per_user_per_day.to_bits(),
        }
    }

    /// The supervised engine core. See the supervisor walk-through in
    /// ARCHITECTURE.md; in short, each tick:
    ///
    /// 1. snapshots any shard the fault plan schedules a crash for;
    /// 2. runs all shards in parallel, handing crash-scheduled ones their
    ///    attempt-0 [`CrashPoint`];
    /// 3. sequentially re-executes each crashed shard from its snapshot
    ///    (restore first — a crashed attempt leaves half-mutated state)
    ///    until it succeeds or the retry budget runs out, in which case the
    ///    snapshot is restored one last time and the tick's events are
    ///    skipped with exact [`treads_resilience::LostWork`] accounting;
    /// 4. injects scheduled duplicate/late batch deliveries, then cancels
    ///    them the way a real pipeline must: duplicates are dropped by
    ///    batch identity, late arrivals vanish under the shard-order sort
    ///    and the canonical merge;
    /// 5. merges, folds, advances the clock, and (on cadence) checkpoints.
    #[allow(clippy::too_many_arguments)]
    fn run_core(
        &self,
        platform: &mut Platform,
        sites: &SiteRegistry,
        users: &[UserId],
        extension_users: &BTreeSet<UserId>,
        telemetry: &mut Telemetry,
        options: &ResilienceOptions,
        resume: Option<&EngineCheckpoint>,
    ) -> adsim_types::Result<ResilientOutcome> {
        let echo = self.config_echo(users.len());
        if let Some(cp) = resume {
            if cp.config != echo {
                return Err(Error::invalid(format!(
                    "checkpoint config {:?} does not match engine config {:?}",
                    cp.config, echo
                )));
            }
            if cp.shards.len() != self.config.shards {
                return Err(Error::invalid(format!(
                    "checkpoint has {} shard states, engine has {} shards",
                    cp.shards.len(),
                    self.config.shards
                )));
            }
            // The resumed report is the checkpoint's, so its population
            // counters must agree with the echo checked above.
            if (cp.report.users, cp.report.shards) != (echo.users, echo.shards) {
                return Err(Error::invalid(format!(
                    "checkpoint report counts {} users on {} shards, config echo {:?}",
                    cp.report.users, cp.report.shards, echo
                )));
            }
        }
        let plan = ShardPlan::partition(users, self.config.shards);
        let site_ids = sites.ids();
        let frequency_cap = platform.config.frequency_cap;
        let seed = self.config.seed;
        let session = &self.config.session;

        // Shard construction (session generation) is itself per-user
        // deterministic, so it parallelizes the same way ticks do.
        let mut shards: Vec<ShardState> = span!(telemetry, "phase.session_gen_ns", {
            crossbeam::scope(|s| {
                let handles: Vec<_> = plan
                    .shards()
                    .iter()
                    .enumerate()
                    .map(|(index, shard_users)| {
                        let site_ids = &site_ids;
                        s.spawn(move |_| {
                            ShardState::new(
                                index,
                                shard_users,
                                extension_users,
                                site_ids,
                                session,
                                seed,
                                frequency_cap,
                            )
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("shard construction does not panic"))
                    .collect()
            })
            .expect("engine scope")
        });

        let horizon = self.config.session.days * DAY_MS;
        let mut report = EngineReport {
            users: users.len() as u64,
            shards: self.config.shards as u64,
            ..EngineReport::default()
        };

        let probe = TickProbe {
            record: telemetry.is_enabled(),
            flight_capacity: telemetry.flight_capacity(),
            trace: telemetry.trace_config(),
            seed: self.config.seed,
        };
        // Campaigns already seen crossing their budget, so exhaustion is
        // journaled once per campaign, at the tick whose fold crossed it.
        let mut exhausted: BTreeSet<CampaignId> = BTreeSet::new();

        let mut fault_report = FaultReport::default();
        let mut frames: Vec<CheckpointFrame> = Vec::new();
        // Delta bookkeeping exists only when a delta can follow a base:
        // the tracker maintains last-value maps, journal high-water marks,
        // and the rolling state digest. A resumed chain always restarts at
        // a full base frame (frame 0).
        let mut tracker = (options.checkpoint_every_ticks > 0 && options.delta_base_every > 1)
            .then(|| DeltaTracker::new(self.config.shards));
        // The receipt ledger is owned by the fold loop (the single
        // writer), so chains grow in canonical merge order regardless of
        // shard count. Emission is commitment-only: the platform's
        // impression log already holds every receipt's content, so the
        // run maintains just the heads and rematerializes chains on
        // demand (`receipts_from_impressions`).
        let mut ledger = self
            .config
            .ledger
            .then(|| ReceiptLedger::commitment_only(seed, self.config.tick_ms));
        // The counters both run paths carry exist at zero from the
        // start, then the batch engine's own checkpoint counters.
        register_run_counters(telemetry);
        for name in [
            "checkpoint.bytes",
            "checkpoint.delta_bytes",
            "checkpoint.dirty_slots",
        ] {
            telemetry.count(name, 0);
        }

        let mut tick_start = 0u64;
        if let Some(cp) = resume {
            // Receipt history cannot be rewritten across a resume: the
            // chains are recomputed from the checkpoint's own impression
            // log and must reproduce the heads the checkpoint committed.
            // Checked before any state is restored.
            if let Some(l) = ledger.as_mut() {
                let rebuilt =
                    receipts_from_impressions(seed, self.config.tick_ms, &cp.platform.impressions);
                if !cp.ledger.is_empty() && rebuilt.heads() != cp.ledger {
                    return Err(Error::invalid(
                        "checkpoint ledger heads do not match receipts recomputed \
                         from its impression log",
                    ));
                }
                *l = rebuilt.into_commitment_only();
            }
            platform.restore_state(&cp.platform);
            for (shard, frozen) in shards.iter_mut().zip(&cp.shards) {
                shard.restore_cursors(frozen)?;
            }
            report = cp.report;
            exhausted = cp.exhausted.iter().copied().collect();
            fault_report = cp.faults.clone();
            tick_start = cp.next_tick_start;
        }

        // Prime every shard's browsing buffers for the first tick. Later
        // ticks prefetch for tick t+1 while tick t merges and folds, so
        // this is the only generation wait that sits fully on the critical
        // path.
        if tick_start < horizon {
            let first_end = (tick_start + self.config.tick_ms).min(horizon);
            span!(telemetry, "phase.session_gen_ns", {
                crossbeam::scope(|s| {
                    for shard in shards.iter_mut() {
                        s.spawn(move |_| shard.prefetch_sessions(SimTime(first_end)));
                    }
                })
                .expect("engine prefetch scope")
            });
        }
        while tick_start < horizon {
            let tick_timer = telemetry.span();
            let tick_end = (tick_start + self.config.tick_ms).min(horizon);
            let tick_index = report.ticks;
            let budget = platform.billing.budget_snapshot();

            // Supervisor step 1: snapshot every shard the plan crashes
            // this tick, *before* any attempt can half-mutate it.
            let crashes = options.faults.crashes_at(tick_index);
            let snapshots: BTreeMap<usize, ShardState> = crashes
                .iter()
                .filter(|(s, _)| *s < shards.len())
                .map(|&(s, _)| (s, shards[s].clone()))
                .collect();
            let attempt0: Vec<Option<CrashPoint>> = (0..shards.len())
                .map(|i| {
                    snapshots.contains_key(&i).then_some(CrashPoint {
                        after_page_views: 0,
                    })
                })
                .collect();

            let collected: Mutex<Vec<(usize, Result<ShardBatch, CrashSignal>)>> =
                Mutex::new(Vec::new());
            {
                let platform: &Platform = platform;
                let budget = &budget;
                let collected = &collected;
                crossbeam::scope(|s| {
                    for (shard, &crash) in shards.iter_mut().zip(&attempt0) {
                        s.spawn(move |_| {
                            let index = shard.index();
                            let result = shard.try_run_tick(
                                platform,
                                budget,
                                sites,
                                SimTime(tick_end),
                                probe,
                                crash,
                            );
                            collected.lock().push((index, result));
                        });
                    }
                })
                .expect("engine tick scope");
            }
            let mut batches: Vec<ShardBatch> = Vec::with_capacity(shards.len());
            let mut crashed: Vec<usize> = Vec::new();
            for (index, result) in collected.into_inner() {
                match result {
                    Ok(batch) => batches.push(batch),
                    Err(CrashSignal) => crashed.push(index),
                }
            }
            crashed.sort_unstable();

            // Supervisor step 2: sequential recovery, one crashed shard at
            // a time. Restore the snapshot before *every* attempt — the
            // crashed attempt advanced cursors and RNGs partway — so the
            // re-execution replays the identical tick and the recovery is
            // idempotent.
            for index in crashed {
                fault_report.injected += 1;
                telemetry.count("faults.injected", 1);
                let scheduled = crashes
                    .iter()
                    .find(|(s, _)| *s == index)
                    .map(|&(_, attempts)| attempts)
                    .unwrap_or(1);
                let snapshot = snapshots
                    .get(&index)
                    .expect("only crash-scheduled shards can crash");
                let mut recovered = None;
                let mut attempt = 1u32;
                while attempt <= options.max_retries_per_shard_tick {
                    shards[index] = snapshot.clone();
                    // Later scheduled failures strike deeper into the tick
                    // than attempt 0's, so every retry dies at a *new*
                    // partial state.
                    let crash = (attempt < scheduled).then_some(CrashPoint {
                        after_page_views: u64::from(attempt),
                    });
                    match shards[index].try_run_tick(
                        &*platform,
                        &budget,
                        sites,
                        SimTime(tick_end),
                        probe,
                        crash,
                    ) {
                        Ok(batch) => {
                            recovered = Some(batch);
                            break;
                        }
                        Err(CrashSignal) => {
                            fault_report.injected += 1;
                            telemetry.count("faults.injected", 1);
                            attempt += 1;
                        }
                    }
                }
                match recovered {
                    Some(batch) => {
                        fault_report.recovered += 1;
                        telemetry.count("faults.recovered", 1);
                        batches.push(batch);
                    }
                    None => {
                        // Retry budget exhausted: degrade gracefully.
                        // Restore the snapshot, advance cursors past the
                        // tick without simulating, and account for every
                        // event abandoned.
                        shards[index] = snapshot.clone();
                        let mut lost = shards[index].skip_tick(sites, SimTime(tick_end));
                        lost.tick = tick_index;
                        fault_report.unrecoverable += 1;
                        telemetry.count("faults.unrecoverable", 1);
                        // Fault-degraded work is always retained by the
                        // tail sampler: one synthetic trace inventories
                        // the skipped (shard, tick).
                        if telemetry.trace_config().enabled {
                            let id = TraceId::from_key(
                                self.config.seed,
                                SimTime(tick_end),
                                index as u64,
                                SHED_SEQ,
                            );
                            let mut t =
                                RequestTrace::tail(id, SimTime(tick_end), index as u64, SHED_SEQ);
                            let span = t.span("skipped_tick", None, SimTime(tick_start));
                            t.event(
                                span,
                                TraceEventKind::FaultDegraded {
                                    what: "shard_tick_skipped",
                                    detail: lost.page_views,
                                },
                            );
                            telemetry.offer_trace(t);
                        }
                        fault_report.lost.push(lost);
                    }
                }
            }

            // Supervisor step 3: scheduled at-least-once deliveries. A
            // duplicated batch is pushed verbatim; a delayed batch is moved
            // behind every on-time one, emulating late arrival.
            let dup_count = batches
                .iter()
                .filter(|b| options.faults.duplicated(tick_index, b.shard))
                .count();
            if dup_count > 0 {
                let extra: Vec<ShardBatch> = batches
                    .iter()
                    .filter(|b| options.faults.duplicated(tick_index, b.shard))
                    .cloned()
                    .collect();
                fault_report.injected += extra.len() as u64;
                telemetry.count("faults.injected", extra.len() as u64);
                batches.extend(extra);
            }
            let late_count = batches
                .iter()
                .filter(|b| options.faults.delayed(tick_index, b.shard))
                .count();
            if late_count > 0 {
                let (on_time, late): (Vec<_>, Vec<_>) = batches
                    .into_iter()
                    .partition(|b| !options.faults.delayed(tick_index, b.shard));
                fault_report.injected += late.len() as u64;
                telemetry.count("faults.injected", late.len() as u64);
                // Reordering is fully absorbed by the shard-order sort and
                // the canonical merge below, so a late arrival is
                // recovered the moment it lands.
                fault_report.recovered += late.len() as u64;
                telemetry.count("faults.recovered", late.len() as u64);
                batches = on_time;
                batches.extend(late);
            }

            // Threads push batches in completion order; shard-index order
            // is the canonical one for every per-tick fold below. The sort
            // is stable, so a duplicated batch sits right after its
            // original and is dropped by batch identity (tick, shard) —
            // the idempotent-apply guarantee.
            batches.sort_by_key(|b| b.shard);
            batches.dedup_by(|b, kept| {
                if b.shard == kept.shard {
                    fault_report.recovered += 1;
                    telemetry.count("faults.recovered", 1);
                    true
                } else {
                    false
                }
            });

            // The tracker derives each shard's frequency-cap dirty keys
            // from its merged impression events: the shard bumped exactly
            // the `(ad, user)` slots its surviving (post-dedup) batch
            // delivered, so the delivery hot path carries no bookkeeping.
            if let Some(tracker) = tracker.as_mut() {
                for batch in &batches {
                    for event in &batch.events {
                        if let ShardEvent::Impression { pending, .. } = event {
                            tracker.note_shard_freq(batch.shard, (pending.ad, pending.user));
                        }
                    }
                }
            }

            // Frame-tick shard data is collected *before* the overlap
            // scope below hands the shard states to the prefetch workers:
            // cursors, dirty frequency values, and extension-log suffixes
            // all live on the shards. Without a tracker every frame is a
            // base.
            let take_frame = options.checkpoint_every_ticks > 0
                && (report.ticks + 1).is_multiple_of(options.checkpoint_every_ticks);
            let shard_cut = take_frame.then(|| match tracker.as_mut() {
                Some(tracker)
                    if !(frames.len() as u64).is_multiple_of(options.delta_base_every) =>
                {
                    let mut sources = Vec::with_capacity(shards.len());
                    for (s, shard) in shards.iter_mut().enumerate() {
                        let cursors = shard.take_dirty_cursors();
                        let freq = tracker
                            .drain_shard_freq_dirty(s)
                            .into_iter()
                            .map(|key| (key, shard.freq_count(key.0, key.1)))
                            .collect();
                        let mut ext = Vec::new();
                        for (user, log) in shard.extensions() {
                            let observations = log.observations();
                            let mark = tracker.shard_ext_mark(s, *user);
                            if observations.len() > mark {
                                ext.push((*user, observations[mark..].to_vec()));
                            }
                        }
                        sources.push(ShardDeltaSource {
                            index: s as u64,
                            cursors,
                            freq,
                            ext,
                        });
                    }
                    ShardCut::Delta(sources)
                }
                tracker => {
                    if tracker.is_some() {
                        // A base frame captures everything; reset the
                        // accumulated dirty flags so the next delta starts
                        // from this cut.
                        for shard in shards.iter_mut() {
                            let _ = shard.take_dirty_cursors();
                        }
                    }
                    ShardCut::Base(shards.iter().map(ShardState::export_cursors).collect())
                }
            });

            // The pipelined overlap: shard workers prefetch tick t+1's
            // browsing sessions while this thread merges, folds, and
            // checkpoints tick t. Generation is pure in (user, seed, day)
            // and the merge/fold never touches browsing buffers, so the
            // overlap cannot change any folded byte.
            let prefetch_until = (tick_end + self.config.tick_ms).min(horizon);
            let overlap = tick_end < horizon;
            let overlap_gen_ns = Mutex::new(0u64);
            crossbeam::scope(|s| -> adsim_types::Result<()> {
                if overlap {
                    for shard in shards.iter_mut() {
                        let overlap_gen_ns = &overlap_gen_ns;
                        s.spawn(move |_| {
                            let t0 = std::time::Instant::now();
                            shard.prefetch_sessions(SimTime(prefetch_until));
                            let ns = t0.elapsed().as_nanos() as u64;
                            let mut slowest = overlap_gen_ns.lock();
                            *slowest = (*slowest).max(ns);
                        });
                    }
                }

                let mut tick_flight: Vec<FlightEvent> = Vec::new();
                let mut tick_traces: Vec<RequestTrace> = Vec::new();
                let mut shard_flight_dropped = 0u64;
                for batch in &mut batches {
                    report.page_views += batch.page_views;
                    report.opportunities += batch.stats.opportunities;
                    platform.stats.opportunities += batch.stats.opportunities;
                    platform.stats.won += batch.stats.won;
                    platform.stats.lost_to_background += batch.stats.lost_to_background;
                    platform.stats.unfilled += batch.stats.unfilled;
                    telemetry.merge_registry(&batch.telemetry);
                    tick_flight.extend(batch.flight.iter().copied());
                    tick_traces.append(&mut batch.traces);
                    shard_flight_dropped += batch.flight_dropped;
                }
                // Flight events sort by the same canonical key as the
                // event merge, so journal content is shard-count-invariant
                // (as long as no shard's per-tick ring overflowed).
                tick_flight.sort_by_key(FlightEvent::key);
                telemetry.append_events(tick_flight);
                // Traces sort by their request key for the same invariance.
                tick_traces.sort_by_key(RequestTrace::key);
                for t in tick_traces {
                    telemetry.offer_trace(t);
                }
                if shard_flight_dropped > 0 {
                    telemetry.count("flight.dropped_in_shards", shard_flight_dropped);
                }

                let merged = span!(telemetry, "phase.merge_ns", {
                    merge_batches(
                        std::mem::take(&mut batches)
                            .into_iter()
                            .map(|b| b.events)
                            .collect(),
                    )
                })
                .map_err(|e| Error::Internal {
                    what: format!("tick {tick_index}: {e}"),
                })?;
                let apply_timer = telemetry.span();
                let fold = fold_tick_events(
                    platform,
                    merged,
                    SimTime(tick_end),
                    telemetry,
                    &mut exhausted,
                    ledger.as_mut(),
                );
                report.pixel_fires += fold.pixel_fires;
                report.impressions += fold.impressions;
                telemetry.end_span("phase.apply_ns", apply_timer);
                report.ticks += 1;

                // Tick-boundary checkpoint frame: everything is now folded
                // and frozen, so the capture is a consistent cut of the run.
                if let Some(cut) = shard_cut {
                    let head = DeltaHead {
                        config: echo.clone(),
                        next_tick_start: tick_end,
                        report,
                        exhausted: exhausted.iter().copied().collect(),
                        faults: fault_report.clone(),
                        ledger: ledger
                            .as_ref()
                            .map(ReceiptLedger::heads)
                            .unwrap_or_default(),
                    };
                    telemetry.count("ledger.heads_committed", head.ledger.len() as u64);
                    let frame = match cut {
                        ShardCut::Base(shards) => {
                            let cp = EngineCheckpoint {
                                config: head.config,
                                next_tick_start: head.next_tick_start,
                                report: head.report,
                                exhausted: head.exhausted,
                                faults: head.faults,
                                platform: platform.export_state(),
                                shards,
                                ledger: head.ledger,
                            };
                            if let Some(tracker) = tracker.as_mut() {
                                tracker.rebase(&cp, platform);
                            }
                            CheckpointFrame::Full(cp)
                        }
                        ShardCut::Delta(sources) => CheckpointFrame::Delta(
                            tracker
                                .as_mut()
                                .expect("a delta cut implies a tracker")
                                .take_delta(head, platform, sources),
                        ),
                    };
                    // Only a recording run pays for the counts (the byte
                    // count is a full encode); the counters stay
                    // registered at zero.
                    if telemetry.is_enabled() {
                        let bytes = frame.to_bytes().len() as u64;
                        match &frame {
                            CheckpointFrame::Full(_) => telemetry.count("checkpoint.bytes", bytes),
                            CheckpointFrame::Delta(delta) => {
                                telemetry.count("checkpoint.delta_bytes", bytes);
                                telemetry.count("checkpoint.dirty_slots", dirty_slots(delta));
                            }
                        }
                    }
                    frames.push(frame);
                }
                Ok(())
            })
            .expect("engine overlap scope")?;

            if overlap {
                telemetry.observe_ns("phase.session_gen_ns", overlap_gen_ns.into_inner());
            }

            tick_start = tick_end;
            telemetry.end_span("engine.tick_ns", tick_timer);
        }

        // The facet-update counter lives on the profile store (facets are
        // maintained inline by platform mutators, not by shard ticks), so
        // it is read once when the run settles.
        telemetry.count("targeting.facet_updates", platform.profiles.facet_updates());

        let mut extensions = BTreeMap::new();
        for shard in shards {
            extensions.extend(shard.into_extensions());
        }
        Ok(ResilientOutcome {
            outcome: EngineOutcome {
                report,
                extensions,
                ledger,
            },
            faults: fault_report,
            frames,
        })
    }
}

/// The shard half of a checkpoint frame, cut before the tick's overlap
/// scope lends the shards to the prefetch workers.
enum ShardCut {
    /// Every shard's full cursors, for a base frame.
    Base(Vec<ShardCheckpoint>),
    /// What each shard changed since the previous frame.
    Delta(Vec<ShardDeltaSource>),
}

/// Slots a delta frame rewrites (the `checkpoint.dirty_slots` counter).
fn dirty_slots(delta: &DeltaFrame) -> u64 {
    let audience: usize = delta.audience_adds.iter().map(|(_, m)| m.len()).sum();
    let shards: usize = delta
        .shards
        .iter()
        .map(|s| s.users.len() + s.freq.len() + s.ext.len())
        .sum();
    (delta.billing_accounts.len()
        + delta.billing_campaigns.len()
        + delta.billing_ads.len()
        + delta.billing_links.len()
        + delta.freq.len()
        + audience
        + delta.facets.len()
        + shards) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use adplatform::attributes::AttributeCatalog;
    use adplatform::campaign::AdCreative;
    use adplatform::delivery::PendingImpression;
    use adplatform::profile::Gender;
    use adplatform::targeting::{TargetingExpr, TargetingSpec};
    use adplatform::PlatformConfig;
    use adsim_types::{AccountId, AdId, Money, PixelId};

    const USERS: u64 = 300;

    /// A platform with one pixel feeding a pixel audience and two
    /// campaigns: `roomy` has ample budget, `tight` crosses its $1 budget
    /// about two thirds of the way through the tick built below.
    fn fold_scenario() -> (Platform, PixelId, [(CampaignId, AdId); 2]) {
        let mut p = Platform::new(PlatformConfig::default(), AttributeCatalog::new());
        let adv = p.register_advertiser("adv");
        let acct = p.open_account(adv).expect("account");
        let pixel = p.create_pixel(acct, "opt-in page").expect("pixel");
        p.create_pixel_audience(acct, pixel).expect("audience");
        let mut campaign = |budget| {
            let c = p
                .create_campaign(acct, "c", Money::dollars(2), Some(budget))
                .expect("campaign");
            let ad = p
                .submit_ad(
                    c,
                    AdCreative::text("Hello", "World"),
                    TargetingSpec::including(TargetingExpr::Everyone),
                )
                .expect("ad");
            (c, ad)
        };
        let roomy = campaign(Money::dollars(1_000));
        let tight = campaign(Money::dollars(1));
        for i in 0..USERS {
            p.register_user(20 + (i % 40) as u8, Gender::Female, "Ohio", "43004");
        }
        (p, pixel, [roomy, tight])
    }

    /// One canonically ordered tick: 1,500 page views, each a pixel fire
    /// and an impression, several users per millisecond, plus one fire of
    /// an unknown pixel and one of an unknown user.
    fn tick_events(
        pixel: PixelId,
        ads: [(CampaignId, AdId); 2],
        account: AccountId,
    ) -> Vec<ShardEvent> {
        let mut seqs = vec![0u64; USERS as usize + 2];
        let mut events = Vec::new();
        for view in 0..1_500u64 {
            let at = SimTime(view / 3);
            let user = UserId(1 + (view * 7) % USERS);
            let seq = &mut seqs[user.raw() as usize];
            events.push(ShardEvent::PixelFire {
                at,
                user,
                user_seq: *seq,
                pixel,
            });
            let (campaign, ad) = ads[(view % 2) as usize];
            events.push(ShardEvent::Impression {
                at,
                user,
                user_seq: *seq + 1,
                pending: PendingImpression {
                    ad,
                    campaign,
                    account,
                    user,
                    at,
                    clearing_cpm: Money::micros(2_000_000 + 1_000 * (view % 5) as i64),
                    spec_digest: 0xfeed ^ ad.raw(),
                },
            });
            *seq += 2;
        }
        events.push(ShardEvent::PixelFire {
            at: SimTime(100),
            user: UserId(1),
            user_seq: 1_000,
            pixel: PixelId(pixel.raw() + 99),
        });
        events.push(ShardEvent::PixelFire {
            at: SimTime(100),
            user: UserId(USERS + 1),
            user_seq: 0,
            pixel,
        });
        events.sort_by_key(ShardEvent::key);
        events
    }

    /// The fold one event at a time, written against the platform's
    /// public store operations: the definition `fold_tick_events` must
    /// reproduce byte for byte.
    fn reference_fold(
        platform: &mut Platform,
        merged: &[ShardEvent],
        tick_end: SimTime,
        telemetry: &mut Telemetry,
        exhausted: &mut BTreeSet<CampaignId>,
        ledger: &mut ReceiptLedger,
    ) -> TickFold {
        let mut fold = TickFold::default();
        let mut charged = BTreeSet::new();
        for event in merged {
            match *event {
                ShardEvent::PixelFire {
                    at, user, pixel, ..
                } => {
                    if platform.apply_pixel_fire(user, pixel, at).is_ok() {
                        fold.pixel_fires += 1;
                    }
                }
                ShardEvent::Impression {
                    user_seq, pending, ..
                } => {
                    let price = platform.apply_impression(&pending);
                    fold.impressions += 1;
                    ledger.append(
                        pending.user,
                        pending.ad,
                        pending.spec_digest,
                        pending.at,
                        price,
                    );
                    charged.insert(pending.campaign);
                    telemetry.record_event(FlightEvent {
                        at: pending.at,
                        user: pending.user,
                        seq: user_seq,
                        trace: 0,
                        kind: FlightKind::ImpressionBilled {
                            ad: pending.ad.raw(),
                            campaign: pending.campaign.raw(),
                            account: pending.account.raw(),
                            price_micros: price.as_micros(),
                        },
                    });
                }
            }
        }
        telemetry.count("engine.pixel_fires", fold.pixel_fires);
        telemetry.count("engine.impressions", fold.impressions);
        telemetry.count("ledger.receipts", fold.impressions);
        for campaign in charged {
            let budget = platform.campaigns.campaign(campaign).expect("c").budget;
            if !platform.billing.within_budget(campaign, budget) && exhausted.insert(campaign) {
                telemetry.count("delivery.budget_exhaustions", 1);
                telemetry.record_event(FlightEvent {
                    at: tick_end,
                    user: UserId(0),
                    seq: campaign.raw(),
                    trace: 0,
                    kind: FlightKind::BudgetExhausted {
                        campaign: campaign.raw(),
                    },
                });
            }
        }
        platform.clock.advance_to(tick_end);
        telemetry.count("engine.ticks", 1);
        fold
    }

    /// `fold_tick_events` on a tick large enough to split its stores
    /// across two threads leaves exactly what folding one event at a time
    /// leaves: platform state, receipt chains, tally, counters and the
    /// flight journal (`ImpressionBilled` order and the one
    /// `BudgetExhausted`).
    #[test]
    fn split_fold_equals_one_event_at_a_time() {
        let (mut reference, pixel, ads) = fold_scenario();
        let account = reference.campaigns.campaign(ads[0].0).expect("c").account;
        let merged = tick_events(pixel, ads, account);
        let fires = merged
            .iter()
            .filter(|e| matches!(e, ShardEvent::PixelFire { .. }))
            .count();
        assert_eq!((fires, merged.len() - fires), (1_502, 1_500));
        assert!(
            fires.min(merged.len() - fires) >= FOLD_SPLIT_MIN,
            "the tick splits"
        );
        let tick_end = SimTime(DAY_MS);

        let mut ref_telemetry = Telemetry::with_flight_capacity(10_000);
        let mut ref_exhausted = BTreeSet::new();
        let mut ref_ledger = ReceiptLedger::new(7, DAY_MS);
        let want = reference_fold(
            &mut reference,
            &merged,
            tick_end,
            &mut ref_telemetry,
            &mut ref_exhausted,
            &mut ref_ledger,
        );

        let (mut platform, _, _) = fold_scenario();
        let mut telemetry = Telemetry::with_flight_capacity(10_000);
        let mut exhausted = BTreeSet::new();
        let mut ledger = ReceiptLedger::new(7, DAY_MS);
        let got = fold_tick_events(
            &mut platform,
            merged,
            tick_end,
            &mut telemetry,
            &mut exhausted,
            Some(&mut ledger),
        );

        assert_eq!(got, want);
        assert_eq!(
            got,
            TickFold {
                pixel_fires: 1_500,
                impressions: 1_500
            },
            "the unknown pixel and the unknown user are not counted"
        );
        let state = platform.export_state();
        assert_eq!(state, reference.export_state());
        assert_eq!(state.pixel_events.len(), 1_500);
        assert_eq!(state.audience_members[0].1.len(), USERS as usize);
        assert_eq!(ledger.heads(), ref_ledger.heads());
        assert_eq!(ledger, ref_ledger);
        assert_eq!(telemetry.metrics(), ref_telemetry.metrics());
        assert_eq!(
            telemetry.metrics().counter("delivery.budget_exhaustions"),
            1
        );
        assert_eq!(exhausted, ref_exhausted);
        assert_eq!(exhausted, BTreeSet::from([ads[1].0]));
        let journal: Vec<FlightEvent> = telemetry.flight().events().copied().collect();
        let ref_journal: Vec<FlightEvent> = ref_telemetry.flight().events().copied().collect();
        assert_eq!(journal.len(), 1_501);
        assert_eq!(journal, ref_journal);
    }

    /// The serving applier's order: [`publish_tick`] on the platform,
    /// then [`journal_tick`] on the journal stores held apart from it.
    /// Publishing alone puts in place what the next tick decides from
    /// (billing, audience joins, the clock and the exhausted set) and
    /// journals nothing; the journal then leaves exactly what folding one
    /// event at a time leaves: platform state, receipt chains, tally,
    /// counters and the flight journal.
    #[test]
    fn publish_then_journal_equals_one_event_at_a_time() {
        let (mut reference, pixel, ads) = fold_scenario();
        let account = reference.campaigns.campaign(ads[0].0).expect("c").account;
        let merged = tick_events(pixel, ads, account);
        let tick_end = SimTime(DAY_MS);

        let mut ref_telemetry = Telemetry::with_flight_capacity(10_000);
        let mut ref_exhausted = BTreeSet::new();
        let mut ref_ledger = ReceiptLedger::new(7, DAY_MS);
        let want = reference_fold(
            &mut reference,
            &merged,
            tick_end,
            &mut ref_telemetry,
            &mut ref_exhausted,
            &mut ref_ledger,
        );

        let (mut platform, _, _) = fold_scenario();
        let mut telemetry = Telemetry::with_flight_capacity(10_000);
        let mut exhausted = BTreeSet::new();
        let mut ledger = ReceiptLedger::new(7, DAY_MS);
        let mut journals = TickJournals::take(&mut platform);
        let publish = publish_tick(
            &mut platform,
            &journals,
            &merged,
            tick_end,
            telemetry.is_enabled(),
            &mut exhausted,
        );
        assert_eq!(
            platform.billing.export_state(),
            reference.billing.export_state()
        );
        assert_eq!(
            platform.audiences.memberships(),
            reference.audiences.memberships()
        );
        assert_eq!(platform.clock.now(), tick_end);
        assert_eq!(exhausted, ref_exhausted);
        assert_eq!(telemetry.flight().events().count(), 0);
        assert_eq!(telemetry.metrics(), Telemetry::new().metrics());

        let got = journal_tick(
            &mut journals,
            &merged,
            publish,
            Some(&mut ledger),
            &mut telemetry,
        );
        journals.restore(&mut platform);
        assert_eq!(got, want);
        assert_eq!(platform.export_state(), reference.export_state());
        assert_eq!(ledger.heads(), ref_ledger.heads());
        assert_eq!(ledger, ref_ledger);
        assert_eq!(telemetry.metrics(), ref_telemetry.metrics());
        let journal: Vec<FlightEvent> = telemetry.flight().events().copied().collect();
        let ref_journal: Vec<FlightEvent> = ref_telemetry.flight().events().copied().collect();
        assert_eq!(journal, ref_journal);
    }
}
