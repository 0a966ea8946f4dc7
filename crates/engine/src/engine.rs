//! The tick loop: snapshot → parallel shards → deterministic merge —
//! supervised for fault injection, crash recovery, and checkpoint/resume.

use std::collections::{BTreeMap, BTreeSet};

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
/// This is the **only** code path that mutates shared platform state at a
/// tick boundary; the batch engine's supervisor and `treads-serving`'s
/// applier both fold through it, which is what makes a serving run with a
/// fixed arrival schedule byte-identical to the batch engine fed the same
/// opportunity stream.
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
    let recording = telemetry.is_enabled();
    let mut charged_campaigns: BTreeSet<CampaignId> = BTreeSet::new();
    let mut fold = TickFold::default();
    if let Some(ledger) = ledger.as_deref_mut() {
        // Event count bounds the tick's impressions, so no append below
        // reallocates a chain mid-fold.
        ledger.reserve(merged.len() as u64);
    }
    for event in merged {
        match event {
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
                    charged_campaigns.insert(pending.campaign);
                    telemetry.record_event(FlightEvent {
                        at: pending.at,
                        user: pending.user,
                        seq: user_seq,
                        // The fold runs after the merge erased the page
                        // view's starting seq, so it cannot re-derive the
                        // request's trace id; see `FlightEvent::trace`.
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
    }
    telemetry.count("engine.pixel_fires", fold.pixel_fires);
    telemetry.count("engine.impressions", fold.impressions);
    if ledger.is_some() {
        telemetry.count("ledger.receipts", fold.impressions);
    }

    // A campaign can only cross its budget in a tick that charged it, so
    // checking the charged set covers every transition.
    if recording {
        for campaign in charged_campaigns {
            if exhausted.contains(&campaign) {
                continue;
            }
            let budget_limit = match platform.campaigns.campaign(campaign) {
                Ok(c) => c.budget,
                Err(_) => continue,
            };
            if !platform.billing.within_budget(campaign, budget_limit) {
                exhausted.insert(campaign);
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
        }
    }

    platform.clock.advance_to(tick_end);
    telemetry.count("engine.ticks", 1);
    fold
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
