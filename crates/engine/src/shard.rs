//! Per-shard execution state.
//!
//! A shard exclusively owns a subset of users (assigned by
//! [`treads_workload::ShardPlan`]) and everything keyed on them:
//!
//! * each user's **browsing schedule**, generated one day at a time from
//!   the stream keyed on `(user, day)`
//!   ([`SessionSchedule::generate_day_for_user`]) — identical whichever
//!   shard (or pipeline stage) runs it;
//! * each user's **auction RNG** and event counter ([`Viewer`]), the
//!   RNG being the stream keyed on the user ([`crate::auction_rng`]) —
//!   likewise;
//! * the shard's **frequency caps**, which are per-`(ad, user)` counters
//!   and therefore never shared across shards, and the **extension logs**
//!   of its users who run the Treads extension (both in its
//!   [`ViewDecider`]).
//!
//! A tick walks each user's schedule up to the tick's end and decides
//! every page view with [`ViewDecider::decide_view`], the routine the
//! serving workers run too. The shard only *reads* the platform — against
//! a frozen [`adplatform::billing::BudgetSnapshot`], with one stage-1
//! match set per user per tick — and accumulates its globally-visible
//! effects as a [`ShardBatch`] for the engine to merge. What only the
//! batch path records stays here: the census tally, histograms, sampled
//! phase timers and the flight journal.

use std::collections::{BTreeMap, BTreeSet};

use adplatform::billing::BudgetView;
use adplatform::delivery::DeliveryStats;
use adplatform::Platform;
use adsim_types::{SimTime, SiteId, UserId};
use rand::rngs::StdRng;
use std::time::Instant;
use treads_telemetry::{
    FlightEvent, FlightKind, FlightRecorder, Histogram, Registry, RequestTrace, TraceConfig,
    TraceId,
};
use websim::{BrowsingEvent, ExtensionLog, SessionConfig, SessionSchedule, Site, SiteRegistry};

use treads_resilience::checkpoint::{ExtensionSnapshot, ShardCheckpoint, UserCursor};
use treads_resilience::LostWork;

use crate::engine::DAY_MS;
use crate::event::ShardEvent;
use crate::view::{outcome_label, PageView, SlotStep, ViewDecider, Viewer};

/// The inputs of day-keyed schedule generation, retained so days can be
/// materialized lazily (see [`UserRuntime::buf`]).
#[derive(Clone)]
struct DayGen {
    site_ids: Vec<SiteId>,
    session: SessionConfig,
    seed: u64,
}

impl DayGen {
    /// Day `day` of `user`'s browsing schedule.
    fn day(&self, user: UserId, day: u64) -> Vec<BrowsingEvent> {
        SessionSchedule::generate_day_for_user(user, &self.site_ids, &self.session, self.seed, day)
    }

    /// The number of events in day `day` of `user`'s schedule, without
    /// generating them.
    fn day_len(&self, user: UserId, day: u64) -> u64 {
        SessionSchedule::day_len_for_user(user, &self.session, self.seed, day)
    }

    /// Whether day `day` exists and can hold events before `until`.
    fn needed(&self, day: u64, until: SimTime) -> bool {
        day < self.session.days && day * DAY_MS < until.millis()
    }
}

/// One user's execution state inside its owning shard.
///
/// `Clone` is what makes crash recovery cheap to reason about: the
/// supervisor snapshots a shard before a tick attempt and restores the
/// snapshot wholesale, so a half-executed attempt can never leak partial
/// cursor/RNG state into the retry.
///
/// Browsing schedules are **windowed**: only the not-yet-consumed suffix
/// of already-generated days lives in `buf`. Day `d` of the schedule is a
/// pure function of `(user, seed, d)`
/// ([`SessionSchedule::generate_day_for_user`]), so days are materialized
/// lazily — by [`ShardState::prefetch_sessions`] ahead of the tick that
/// needs them (possibly on another thread, overlapped with the previous
/// tick's merge), or on demand inside the tick as a fallback — and
/// dropped once consumed. The total consumed-event count (`consumed`) is
/// the only schedule state a checkpoint needs.
#[derive(Clone)]
struct UserRuntime {
    id: UserId,
    /// Auction RNG and event counter, advanced by the decide.
    viewer: Viewer,
    /// Pending window of the browsing schedule: the unconsumed events of
    /// every day generated so far, time-sorted.
    buf: Vec<BrowsingEvent>,
    /// Read head into `buf` (events before it are consumed).
    buf_pos: usize,
    /// Number of schedule days already generated into `buf`.
    gen_days: u64,
    /// Total browsing events consumed since the run began — the
    /// checkpoint cursor (day-generation replays it on resume).
    consumed: u64,
    /// Per-user flight-event counter: the `seq` tie-breaker of this user's
    /// journal entries. Advances only on journaled events, entirely from
    /// user-owned state, so it is shard-count-invariant like `seq`.
    fseq: u64,
    /// Set whenever the user consumes a browsing event (the only way
    /// cursor/RNG/seq state can move), cleared by
    /// [`ShardState::take_dirty_cursors`]. A crash-restored snapshot
    /// restores the flag with the rest of the user, so it can be
    /// spuriously *set* after recovery (a harmless, slightly larger
    /// delta) but never spuriously clear.
    dirty: bool,
}

impl UserRuntime {
    /// The user's frozen checkpoint cursor.
    fn cursor(&self) -> UserCursor {
        UserCursor {
            user: self.id,
            rng: self.viewer.rng.state(),
            cursor: self.consumed,
            seq: self.viewer.seq,
            fseq: self.fseq,
        }
    }

    /// Consumes the user's browsing events up to the next page view
    /// before `tick_end` on a site of `sites`, generating schedule days on
    /// demand (prefetched shards never need to). Page views of unknown
    /// sites are consumed and skipped. `None` once the user has no more
    /// events before `tick_end`.
    #[inline]
    fn next_view<'s>(
        &mut self,
        days: &DayGen,
        sites: &'s SiteRegistry,
        tick_end: SimTime,
    ) -> Option<(SimTime, &'s Site)> {
        loop {
            if self.buf_pos == self.buf.len() {
                if !days.needed(self.gen_days, tick_end) {
                    return None;
                }
                self.buf = days.day(self.id, self.gen_days);
                self.buf_pos = 0;
                self.gen_days += 1;
                continue;
            }
            let BrowsingEvent::PageView { site, at, .. } = self.buf[self.buf_pos];
            if at >= tick_end {
                return None;
            }
            self.buf_pos += 1;
            self.consumed += 1;
            self.dirty = true;
            if let Some(site) = sites.get(site) {
                return Some((at, site));
            }
        }
    }
}

/// What a shard should record during a tick, decided once by the engine.
#[derive(Debug, Clone, Copy)]
pub struct TickProbe {
    /// Record metrics and flight events this tick.
    pub record: bool,
    /// Ring capacity for the shard's per-tick flight journal.
    pub flight_capacity: usize,
    /// Causal-trace sampling policy (disabled unless telemetry is live).
    pub trace: TraceConfig,
    /// The engine seed, the salt of every derived [`TraceId`]. Trace ids
    /// are a pure function of `(seed, at, user, user_seq)`, so they are
    /// shard-count-invariant like the merge key itself.
    pub seed: u64,
}

impl TickProbe {
    /// A probe that records nothing (what [`crate::Engine::run`] uses).
    pub fn off() -> Self {
        Self {
            record: false,
            flight_capacity: 1,
            trace: TraceConfig::disabled(),
            seed: 0,
        }
    }
}

/// Delivery (win handling) is micro-scale work — timing every win would
/// cost more than the work itself — so `phase.delivery_ns` times one win
/// in this many and scales the sample up.
const DELIVERY_SAMPLE: u64 = 16;

/// Tick-local counter accumulator. Hot-loop increments hit plain fields;
/// the registry (a name-keyed map) is touched once per tick at flush.
#[derive(Default)]
struct TickTally {
    considered: u64,
    not_servable: u64,
    suspended: u64,
    over_budget: u64,
    frequency_capped: u64,
    targeting_mismatch: u64,
    cap_rejections: u64,
    treads_observed: u64,
    index_candidates: u64,
    index_pruned: u64,
    compiled_evals: u64,
    match_sets: u64,
}

/// Everything a shard hands back after one tick.
#[derive(Debug, Clone)]
pub struct ShardBatch {
    /// The producing shard's index (for deterministic collection order).
    pub shard: usize,
    /// Globally-visible effects, sorted by [`ShardEvent::key`]: the shard
    /// sorts its batch on its own thread so the engine's serial
    /// [`crate::merge_batches`] is one linear pass over sorted runs.
    pub events: Vec<ShardEvent>,
    /// Delivery statistics accrued this tick.
    pub stats: DeliveryStats,
    /// Page views processed this tick.
    pub page_views: u64,
    /// Metrics recorded this tick (empty when the probe was off).
    pub telemetry: Registry,
    /// Flight events journaled this tick, in shard-local production order.
    pub flight: Vec<FlightEvent>,
    /// Flight events this shard's per-tick ring evicted.
    pub flight_dropped: u64,
    /// Head-sampled request traces built this tick, in shard-local
    /// production order (the engine re-sorts by request key).
    pub traces: Vec<RequestTrace>,
}

/// A point inside a tick at which an injected crash strikes.
///
/// The crash fires when the attempt's page-view count *exceeds*
/// `after_page_views`, so successive retry attempts (which pass their
/// attempt number here) die progressively deeper into the tick — each
/// failed attempt leaves behind a *different* half-mutated state, which is
/// exactly what snapshot-restore recovery must be robust to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPoint {
    /// Page views the attempt completes before dying.
    pub after_page_views: u64,
}

/// A shard tick attempt died mid-execution.
///
/// Carries no payload on purpose: a crashed process reports nothing, and
/// the supervisor must recover from the tick-start snapshot alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashSignal;

/// A shard: exclusive owner of its users' simulation state.
#[derive(Clone)]
pub struct ShardState {
    index: usize,
    users: Vec<UserRuntime>,
    days: DayGen,
    /// Frequency caps, extension logs and the decide's working memory.
    decider: ViewDecider,
}

impl ShardState {
    /// Builds a shard for `users`. Construction is cheap: browsing
    /// schedules are generated day by day as ticks (or
    /// [`Self::prefetch_sessions`]) demand them, not up front.
    pub fn new(
        index: usize,
        users: &[UserId],
        extension_users: &BTreeSet<UserId>,
        sites: &[SiteId],
        session: &SessionConfig,
        seed: u64,
        frequency_cap: u32,
    ) -> Self {
        let runtimes = users
            .iter()
            .map(|&id| UserRuntime {
                id,
                viewer: Viewer::new(seed, id),
                buf: Vec::new(),
                buf_pos: 0,
                gen_days: 0,
                consumed: 0,
                fseq: 0,
                dirty: false,
            })
            .collect();
        let extensions = users
            .iter()
            .filter(|u| extension_users.contains(u))
            .map(|&u| (u, ExtensionLog::for_user(u)))
            .collect();
        Self {
            index,
            users: runtimes,
            days: DayGen {
                site_ids: sites.to_vec(),
                session: *session,
                seed,
            },
            decider: ViewDecider::new(frequency_cap, extensions),
        }
    }

    /// Number of users owned by this shard.
    pub fn user_count(&self) -> usize {
        self.users.len()
    }

    /// Materializes every schedule day starting before `until` that is
    /// not yet generated, for every user, dropping consumed events first.
    ///
    /// Day generation is a pure function of `(user, seed, day)`, so this
    /// can run on any thread at any time before the events are needed —
    /// the engine overlaps tick `t+1`'s prefetch with tick `t`'s
    /// merge/apply. Ticks that outrun the prefetch fall back to on-demand
    /// generation with identical results.
    pub fn prefetch_sessions(&mut self, until: SimTime) {
        for user in &mut self.users {
            if user.buf_pos > 0 {
                user.buf.drain(..user.buf_pos);
                user.buf_pos = 0;
            }
            while self.days.needed(user.gen_days, until) {
                user.buf.extend(self.days.day(user.id, user.gen_days));
                user.gen_days += 1;
            }
        }
    }

    /// Runs all of this shard's browsing events with `at < tick_end`.
    ///
    /// Reads the platform's catalog state and the tick's frozen `budget`;
    /// mutates only shard-owned state (cursors, RNGs, frequency caps,
    /// extension logs). Users are processed sequentially — within a tick
    /// the decide inputs are frozen and frequency caps are per-user, so
    /// cross-user processing order cannot influence any outcome. The
    /// batch's events come back sorted by [`ShardEvent::key`].
    ///
    /// `probe` controls telemetry: with it on, the shard additionally
    /// fills the batch's metrics registry and flight journal. Telemetry
    /// never touches an RNG and every recorded quantity derives from
    /// user-owned state, so probed and unprobed runs simulate identically.
    pub fn run_tick<B: BudgetView>(
        &mut self,
        platform: &Platform,
        budget: &B,
        sites: &SiteRegistry,
        tick_end: SimTime,
        probe: TickProbe,
    ) -> ShardBatch {
        self.try_run_tick(platform, budget, sites, tick_end, probe, None)
            .expect("a tick without an injected crash point cannot crash")
    }

    /// [`Self::run_tick`], but with an optional injected [`CrashPoint`].
    ///
    /// On `Err(CrashSignal)` the shard's state is **half-mutated garbage**
    /// (cursors and RNGs advanced partway through the tick) and the
    /// partial batch is discarded; the caller must restore a tick-start
    /// snapshot before retrying. The fault-free path (`crash: None`) can
    /// never fail.
    pub fn try_run_tick<B: BudgetView>(
        &mut self,
        platform: &Platform,
        budget: &B,
        sites: &SiteRegistry,
        tick_end: SimTime,
        probe: TickProbe,
        crash: Option<CrashPoint>,
    ) -> Result<ShardBatch, CrashSignal> {
        let record = probe.record;
        // Tracing rides on the recording path: ids and sampling are pure
        // functions of user-owned state (no RNG draws, no platform
        // mutation), so traced and untraced runs simulate identically.
        let tracing = record && probe.trace.enabled;
        let mut batch = ShardBatch {
            shard: self.index,
            events: Vec::new(),
            stats: DeliveryStats::default(),
            page_views: 0,
            telemetry: Registry::new(),
            flight: Vec::new(),
            flight_dropped: 0,
            traces: Vec::new(),
        };
        let mut flight = FlightRecorder::with_capacity(probe.flight_capacity.max(1));
        // Phase wall time accumulates across the whole tick and is
        // observed once, so the histograms read "per shard-tick". The
        // auction timer chains per *user* (two clock reads per user-tick,
        // not per opportunity) and covers the whole decide loop; delivery
        // is sampled — see `DELIVERY_SAMPLE`.
        let mut auction_ns = 0u64;
        let mut delivery_ns = 0u64;
        let mut tally = TickTally::default();
        let mut eligible_hist = Histogram::small_values();
        let mut candidate_hist = Histogram::small_values();
        for user in &mut self.users {
            let uid = user.id;
            let mut chain = if record { Some(Instant::now()) } else { None };
            // Whether the decider's match set holds this user's stage 1
            // for this tick. It is built at the user's first opportunity
            // and serves every later slot and page view of theirs in the
            // tick: the platform is `&Platform` and the budget a frozen
            // snapshot, so only the frequency caps — applied per slot —
            // can move.
            let mut matched = false;
            while let Some((at, site)) = user.next_view(&self.days, sites, tick_end) {
                batch.page_views += 1;
                if let Some(cp) = crash {
                    if batch.page_views > cp.after_page_views {
                        // Die with cursors/RNGs already advanced for this
                        // page view: the most hostile partial state.
                        return Err(CrashSignal);
                    }
                }
                // The trace id is keyed on the page view's *first* merge
                // key — `seq` before any pixel or impression of this view
                // consumes one — so any stage that knows the request key
                // can re-derive the same id on any shard count.
                let trace_id = if tracing {
                    TraceId::from_key(probe.seed, at, uid.raw(), user.viewer.seq)
                } else {
                    TraceId(0)
                };
                let mut trace = (tracing && probe.trace.sampled(trace_id))
                    .then(|| RequestTrace::new(trace_id, at, uid.raw(), user.viewer.seq, true));
                let root = trace.as_mut().map(|t| t.span("page_view", None, at));
                let mut journal = |kind| {
                    flight.record(FlightEvent {
                        at,
                        user: uid,
                        seq: user.fseq,
                        trace: trace_id.0,
                        kind,
                    });
                    user.fseq += 1;
                };
                let mut sample = None;
                // Everything a tick records per slot. The hook below skips
                // it at once on an unrecorded tick, so the decide loop pays
                // one branch per step for it.
                let mut recorded = |step: SlotStep<'_>| match step {
                    SlotStep::Decided { decision, .. } => {
                        let b = decision.breakdown;
                        eligible_hist.observe(u64::from(b.eligible));
                        // Under indexed selection `considered` IS the
                        // candidate-set size; under the linear scan it is
                        // the whole inventory and `index_pruned` is zero.
                        candidate_hist.observe(u64::from(b.considered));
                        tally.index_candidates += u64::from(b.considered);
                        tally.index_pruned += u64::from(b.index_pruned);
                        tally.considered += u64::from(b.considered);
                        tally.not_servable += u64::from(b.not_servable);
                        tally.suspended += u64::from(b.suspended);
                        tally.over_budget += u64::from(b.over_budget);
                        tally.frequency_capped += u64::from(b.frequency_capped);
                        tally.targeting_mismatch += u64::from(b.targeting_mismatch);
                        tally.compiled_evals += u64::from(b.compiled_evals);
                        journal(FlightKind::AuctionDecided {
                            outcome: outcome_label(&decision.decision.outcome),
                            eligible: b.eligible,
                            frequency_capped: b.frequency_capped,
                            over_budget: b.over_budget,
                        });
                        if b.frequency_capped > 0 {
                            tally.cap_rejections += 1;
                            journal(FlightKind::CapRejection {
                                ads_capped: b.frequency_capped,
                            });
                        }
                    }
                    SlotStep::Won { wins } if wins % DELIVERY_SAMPLE == 0 => {
                        if let Some(t) = chain {
                            let mid = Instant::now();
                            auction_ns += (mid - t).as_nanos() as u64;
                            sample = Some(mid);
                        }
                    }
                    SlotStep::Delivered { ad, observed } => {
                        if observed {
                            tally.treads_observed += 1;
                            journal(FlightKind::TreadObserved { ad: ad.raw() });
                        }
                        if let Some(mid) = sample.take() {
                            let end = Instant::now();
                            delivery_ns += (end - mid).as_nanos() as u64 * DELIVERY_SAMPLE;
                            chain = Some(end);
                        }
                    }
                    _ => {}
                };
                self.decider.decide_view(
                    platform,
                    budget,
                    PageView {
                        at,
                        user: uid,
                        site,
                    },
                    &mut user.viewer,
                    &mut matched,
                    &mut batch.events,
                    &mut batch.stats,
                    trace.as_mut().zip(root),
                    |step| {
                        if record {
                            recorded(step);
                        }
                    },
                );
                if let Some(t) = trace {
                    batch.traces.push(t);
                }
            }
            tally.match_sets += u64::from(matched);
            if let Some(t) = chain {
                auction_ns += t.elapsed().as_nanos() as u64;
            }
        }
        if record {
            let reg = &mut batch.telemetry;
            reg.add("engine.page_views", batch.page_views);
            reg.add("eligibility.considered", tally.considered);
            reg.add("eligibility.not_servable", tally.not_servable);
            reg.add("eligibility.suspended", tally.suspended);
            reg.add("eligibility.over_budget", tally.over_budget);
            reg.add("eligibility.frequency_capped", tally.frequency_capped);
            reg.add("eligibility.targeting_mismatch", tally.targeting_mismatch);
            reg.add("auction.won", batch.stats.won);
            reg.add("auction.lost_to_background", batch.stats.lost_to_background);
            reg.add("auction.unfilled", batch.stats.unfilled);
            reg.add("delivery.cap_rejections", tally.cap_rejections);
            reg.add("treads.observed", tally.treads_observed);
            reg.add("index.candidates", tally.index_candidates);
            reg.add("index.pruned", tally.index_pruned);
            reg.add("targeting.compiled_evals", tally.compiled_evals);
            reg.add("targeting.match_sets", tally.match_sets);
            reg.merge_histogram("auction.eligible_bids", &eligible_hist);
            reg.merge_histogram("index.candidate_set_size", &candidate_hist);
            reg.observe_ns("phase.auction_ns", auction_ns);
            reg.observe_ns("phase.delivery_ns", delivery_ns);
            batch.flight_dropped = flight.dropped();
            batch.flight = flight.drain();
        }
        // Stable, and it sorts (key, index) pairs instead of moving whole
        // events around: cheaper than `sort_by_key` on these wide enums.
        batch.events.sort_by_cached_key(ShardEvent::key);
        Ok(batch)
    }

    /// Skips all of this shard's browsing events with `at < tick_end`
    /// without executing them, returning an exact inventory of the work
    /// abandoned. Used by the supervisor when a shard tick exhausts its
    /// retry budget: the cursor must still advance (or the events would
    /// replay next tick at the wrong time) but nothing else may move.
    ///
    /// `seq`, RNGs, frequency caps, and extension logs are deliberately
    /// untouched. Skipped events are never merged, and every later event
    /// has a strictly later `at`, so reusing the skipped events' sequence
    /// numbers cannot collide in the `(at, user, user_seq)` merge key.
    /// Page views of unknown sites are skipped without counting, exactly
    /// as [`Self::run_tick`] skips them without simulating.
    pub fn skip_tick(&mut self, sites: &SiteRegistry, tick_end: SimTime) -> LostWork {
        let mut lost = LostWork {
            shard: self.index,
            ..LostWork::default()
        };
        for user in &mut self.users {
            while let Some((_, site)) = user.next_view(&self.days, sites, tick_end) {
                lost.page_views += 1;
                lost.pixel_fires += site.pixels.len() as u64;
                lost.opportunities += u64::from(site.ad_slots_per_view);
            }
        }
        lost
    }

    /// This shard's index within the engine.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Freezes the shard's replayable state into a [`ShardCheckpoint`].
    ///
    /// Browsing schedules are *not* captured — they are a pure function of
    /// `(seed, user, sites, session)` and are regenerated by the resuming
    /// host; only the cursor into them is state.
    pub fn export_cursors(&self) -> ShardCheckpoint {
        ShardCheckpoint {
            index: self.index as u64,
            users: self.users.iter().map(UserRuntime::cursor).collect(),
            freq: self.decider.freq.entries(),
            extensions: self
                .decider
                .extensions
                .iter()
                .map(|(&user, log)| ExtensionSnapshot {
                    user,
                    observations: log.observations().to_vec(),
                })
                .collect(),
        }
    }

    /// Drains the per-user dirty flags, returning `(position, cursor)`
    /// for every user whose schedule state moved since the last drain.
    ///
    /// Positions index the shard's deterministic user order (the same
    /// order [`Self::export_cursors`] freezes), so a delta frame can
    /// address cursors without repeating the full user list. Call this on
    /// *every* checkpoint frame — full frames discard the result but must
    /// still reset the flags so the next delta is relative to them.
    pub fn take_dirty_cursors(&mut self) -> Vec<(u32, UserCursor)> {
        let mut out = Vec::new();
        for (ui, user) in self.users.iter_mut().enumerate() {
            if std::mem::take(&mut user.dirty) {
                out.push((ui as u32, user.cursor()));
            }
        }
        out
    }

    /// The current frequency-cap count for `(ad, user)` on this shard.
    pub fn freq_count(&self, ad: adsim_types::AdId, user: UserId) -> u32 {
        self.decider.freq.count(ad, user)
    }

    /// The extension logs of this shard's Treads users (delta checkpoints
    /// read append-only suffixes out of them).
    pub fn extensions(&self) -> &BTreeMap<UserId, ExtensionLog> {
        &self.decider.extensions
    }

    /// Restores the replayable state frozen by [`Self::export_cursors`]
    /// into a freshly built shard (same users, same order, same seed).
    ///
    /// Fails without mutating anything if the checkpoint does not describe
    /// this shard: wrong index, wrong user count, or a positional user
    /// mismatch (shard user assignment is deterministic, so any of these
    /// means the host was configured differently than the checkpointed
    /// run).
    pub fn restore_cursors(&mut self, cp: &ShardCheckpoint) -> adsim_types::Result<()> {
        if cp.index != self.index as u64 {
            return Err(adsim_types::Error::invalid(format!(
                "checkpoint is for shard {}, not shard {}",
                cp.index, self.index
            )));
        }
        if cp.users.len() != self.users.len() {
            return Err(adsim_types::Error::invalid(format!(
                "checkpoint has {} users for shard {}, host shard has {}",
                cp.users.len(),
                self.index,
                self.users.len()
            )));
        }
        // Locate each frozen cursor by day lengths from day 0: a fully
        // consumed day is only counted (its first draw), and only the day
        // the cursor lands in is generated. Nothing is applied until every
        // user's cursor is known to fit inside their schedule.
        let mut windows: Vec<(Vec<BrowsingEvent>, usize, u64)> =
            Vec::with_capacity(self.users.len());
        for (user, frozen) in self.users.iter().zip(&cp.users) {
            if user.id != frozen.user {
                return Err(adsim_types::Error::invalid(format!(
                    "checkpoint user {} does not match host shard user {}",
                    frozen.user, user.id
                )));
            }
            let mut remaining = frozen.cursor;
            let mut window = (Vec::new(), 0usize, 0u64);
            for day in 0..self.days.session.days {
                let len = self.days.day_len(user.id, day);
                if remaining < len {
                    window = (self.days.day(user.id, day), remaining as usize, day + 1);
                    remaining = 0;
                    break;
                }
                remaining -= len;
                window = (Vec::new(), 0, day + 1);
            }
            if remaining > 0 {
                return Err(adsim_types::Error::invalid(format!(
                    "checkpoint cursor {} exceeds user {}'s schedule length",
                    frozen.cursor, user.id
                )));
            }
            windows.push(window);
        }
        let extensions = &mut self.decider.extensions;
        if cp.extensions.len() != extensions.len()
            || cp
                .extensions
                .iter()
                .any(|e| !extensions.contains_key(&e.user))
        {
            return Err(adsim_types::Error::invalid(format!(
                "checkpoint extension-user set does not match host shard {}",
                self.index
            )));
        }
        for ((user, frozen), (buf, buf_pos, gen_days)) in
            self.users.iter_mut().zip(&cp.users).zip(windows)
        {
            user.viewer.rng = StdRng::restore(frozen.rng);
            user.viewer.seq = frozen.seq;
            user.buf = buf;
            user.buf_pos = buf_pos;
            user.gen_days = gen_days;
            user.consumed = frozen.cursor;
            user.fseq = frozen.fseq;
            user.dirty = false;
        }
        self.decider.freq.restore_entries(&cp.freq);
        *extensions = cp
            .extensions
            .iter()
            .map(|e| {
                (
                    e.user,
                    ExtensionLog::from_parts(Some(e.user), e.observations.clone()),
                )
            })
            .collect();
        Ok(())
    }

    /// Consumes the shard, yielding its users' extension logs.
    pub fn into_extensions(self) -> BTreeMap<UserId, ExtensionLog> {
        self.decider.extensions
    }
}
