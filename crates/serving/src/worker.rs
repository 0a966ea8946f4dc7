//! Shard workers: per-request decide against frozen tick state.
//!
//! A worker owns exactly the state its batch-engine twin
//! ([`treads_engine::ShardState`]) owns — its users' auction RNGs and
//! sequence counters ([`Viewer`]), its frequency-cap counters and
//! extension logs ([`ViewDecider`]) — and decides each request's page
//! view with the routine the batch shards run,
//! [`ViewDecider::decide_view`], against the tick's frozen budget
//! snapshot, with one stage-1 match set per request. Because the decide
//! code and the owned state are the same, a serving tick's event batch
//! is byte-identical to the batch engine's for the same opportunities.
//! The worker adds only what serving needs: the `request` root span,
//! span wall times, and the response's ad list.
//!
//! A scheduled crash strikes the tick's first micro-batch. Each failing
//! attempt runs a prefix of the batch against the worker's real state,
//! and the worker then takes back its whole decide state — users,
//! decider and the tick's accumulator — from one clone made at batch
//! start, as the batch supervisor restores a cloned `ShardState`. Nothing
//! an attempt touched survives it, so a recovered tick hands the applier
//! the fault-free batch plus its fault counts.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use adplatform::billing::BudgetSnapshot;
use adplatform::delivery::DeliveryStats;
use adplatform::Platform;
use adsim_types::{SimTime, UserId};
use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};
use parking_lot::RwLock;
use treads_engine::{PageView, ShardEvent, SlotStep, ViewDecider, Viewer};
use treads_resilience::{FaultPlan, LostWork};
use treads_telemetry::{Histogram, RequestTrace, TraceConfig, TraceEventKind, TraceId};
use treads_workload::ShardPlan;
use websim::{ExtensionLog, SiteRegistry};

use crate::batcher::MicroBatcher;
use crate::request::{OpportunityRequest, RejectReason, Response, ServedPage};

/// What the front end sends a shard worker.
pub(crate) enum WorkerMsg {
    /// Serve this request (enqueue into the micro-batcher).
    Request(Envelope),
    /// The simulated clock crossed a tick boundary: flush everything,
    /// hand the tick's effects to the applier, and block until it resumes
    /// the worker with the next tick's budget snapshot.
    CloseTick {
        /// End of the closing tick, in simulated milliseconds.
        tick_end: u64,
    },
    /// The run is over; exit after the current state.
    Shutdown,
}

/// A request in flight to its shard worker.
pub(crate) struct Envelope {
    /// The opportunity to serve.
    pub req: OpportunityRequest,
    /// Wall-clock instant the front end accepted the request; latency is
    /// measured from here to the reply.
    pub accepted: Instant,
    /// Where the response goes (capacity-1 channel; never blocks).
    pub reply: Sender<Response>,
}

/// Everything one shard accumulated over one tick, handed to the applier
/// at the tick-close barrier. The serving twin of
/// [`treads_engine::ShardBatch`]. The worker accumulates straight into
/// one and swaps in a fresh one at each tick close. Only the merged
/// `events` gate the barrier (their charges and audience joins are what
/// the next tick decides from); the applier journals them, and counts the
/// rest, after releasing the workers.
#[derive(Clone)]
pub(crate) struct TickBatch {
    pub shard: usize,
    pub tick_end: u64,
    /// Globally-visible effects, sorted by [`ShardEvent::key`] on the
    /// worker's thread, so the applier's merge is one linear pass.
    pub events: Vec<ShardEvent>,
    pub stats: DeliveryStats,
    pub page_views: u64,
    /// Stage-1 match sets built this tick (one per request with slots).
    pub match_sets: u64,
    /// Compiled targeting checks, summed over every slot's census.
    pub compiled_evals: u64,
    /// Requests this worker answered this tick (served + shed).
    pub requests: u64,
    pub shed: u64,
    pub shed_failure: u64,
    pub shed_unknown_user: u64,
    /// Request latencies observed at reply time.
    pub latency: Histogram,
    /// Micro-batch close-out sizes.
    pub batch_sizes: Histogram,
    pub injected: u64,
    pub recovered: u64,
    pub unrecoverable: u64,
    /// The tick's abandoned work, if a crash exhausted its retries (at
    /// most one entry per shard and tick).
    pub lost: Option<LostWork>,
    /// Causal traces built this tick, in shard-local production order
    /// (the applier re-sorts by request key before retention).
    pub traces: Vec<RequestTrace>,
    /// Canonical identity of every page view served this tick while
    /// tracing is on — the raw material for materializing tail traces of
    /// a whole SLO-breaching window without paying per-request
    /// allocations on the healthy path.
    pub trace_keys: Vec<TraceKey>,
    /// The tick's worst request latency and its trace id — the applier's
    /// exemplar candidate for the request-latency histogram.
    pub exemplar: Option<(u64, TraceId)>,
}

/// The canonical `(at, user, user_seq)` identity of one page view, plus
/// its derived trace id. Recording one of these per request is a single
/// amortized `Vec` push — no allocation, no wall-clock reads — which is
/// what keeps default-sampling tracing under its overhead budget.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TraceKey {
    pub id: TraceId,
    pub at: SimTime,
    pub user: u64,
    pub user_seq: u64,
}

impl TickBatch {
    /// An empty batch for `shard`; `tick_end` is stamped at the flush.
    pub(crate) fn new(shard: usize) -> Self {
        Self {
            shard,
            tick_end: 0,
            events: Vec::new(),
            stats: DeliveryStats::default(),
            page_views: 0,
            match_sets: 0,
            compiled_evals: 0,
            requests: 0,
            shed: 0,
            shed_failure: 0,
            shed_unknown_user: 0,
            latency: Histogram::latency_ns(),
            batch_sizes: Histogram::small_values(),
            injected: 0,
            recovered: 0,
            unrecoverable: 0,
            lost: None,
            traces: Vec::new(),
            trace_keys: Vec::new(),
            exemplar: None,
        }
    }
}

/// Everything a worker thread needs, bundled for the spawn call.
///
/// `'a` is the scope's borrow of the run-local lock and registries; `'p`
/// is the platform borrow the lock protects. Keeping them separate lets
/// the orchestrator reclaim the `&mut Platform` (via `into_inner`) once
/// the scope's `'a` borrows end.
pub(crate) struct WorkerContext<'a, 'p> {
    pub shard: usize,
    pub shards: usize,
    pub seed: u64,
    pub retry_after_ms: u64,
    pub max_retries: u32,
    pub faults: FaultPlan,
    pub platform: &'a RwLock<&'p mut Platform>,
    pub sites: &'a SiteRegistry,
    pub extension_users: &'a BTreeSet<UserId>,
    pub rx: Receiver<WorkerMsg>,
    pub batch_tx: Sender<TickBatch>,
    pub resume_rx: Receiver<Arc<BudgetSnapshot>>,
    pub depth: Arc<AtomicU64>,
    pub budget: Arc<BudgetSnapshot>,
    pub max_batch: usize,
    pub max_delay: Duration,
    /// Effective trace policy (already gated on telemetry being live).
    pub trace: TraceConfig,
}

/// What a worker thread hands back when it exits.
pub(crate) struct WorkerResult {
    pub extensions: BTreeMap<UserId, ExtensionLog>,
}

/// Runs one shard worker to completion (entry point for the spawn).
pub(crate) fn run_worker(ctx: WorkerContext<'_, '_>) -> WorkerResult {
    Worker::new(ctx).run()
}

struct Worker<'a, 'p> {
    shard: usize,
    seed: u64,
    retry_after_ms: u64,
    max_retries: u32,
    faults: FaultPlan,
    platform: &'a RwLock<&'p mut Platform>,
    sites: &'a SiteRegistry,
    rx: Receiver<WorkerMsg>,
    batch_tx: Sender<TickBatch>,
    resume_rx: Receiver<Arc<BudgetSnapshot>>,
    depth: Arc<AtomicU64>,
    budget: Arc<BudgetSnapshot>,
    batcher: MicroBatcher<Envelope>,
    /// Each user's decide state, created on the user's first request
    /// from the same [`Viewer::new`] the batch engine starts from.
    users: BTreeMap<UserId, Viewer>,
    /// Frequency caps, extension logs and the decide's working memory.
    decider: ViewDecider,
    trace: TraceConfig,
    tick_index: u64,
    /// Set when this tick's crash exhausted the retry budget: every
    /// remaining request this tick sheds with `ShardFailure`.
    tick_degraded: bool,
    /// Failing attempts the fault plan schedules for this tick, consumed
    /// by the first micro-batch that executes.
    crash_pending: Option<u32>,
    /// The tick being accumulated, handed over at the tick close.
    acc: TickBatch,
}

impl<'a, 'p> Worker<'a, 'p> {
    fn new(ctx: WorkerContext<'a, 'p>) -> Self {
        // Every extension user this shard owns gets a log up front — even
        // one who never browses — mirroring `ShardState::new`, so outcome
        // extension maps compare equal against the batch engine's.
        let extensions = ctx
            .extension_users
            .iter()
            .filter(|u| ShardPlan::shard_index(**u, ctx.shards) == ctx.shard)
            .map(|&u| (u, ExtensionLog::for_user(u)))
            .collect();
        let frequency_cap = {
            let guard = ctx.platform.read();
            guard.config.frequency_cap
        };
        let mut worker = Self {
            shard: ctx.shard,
            seed: ctx.seed,
            retry_after_ms: ctx.retry_after_ms,
            max_retries: ctx.max_retries,
            faults: ctx.faults,
            platform: ctx.platform,
            sites: ctx.sites,
            rx: ctx.rx,
            batch_tx: ctx.batch_tx,
            resume_rx: ctx.resume_rx,
            depth: ctx.depth,
            budget: ctx.budget,
            batcher: MicroBatcher::new(ctx.max_batch, ctx.max_delay),
            users: BTreeMap::new(),
            decider: ViewDecider::new(frequency_cap, extensions),
            trace: ctx.trace,
            tick_index: 0,
            tick_degraded: false,
            crash_pending: None,
            acc: TickBatch::new(ctx.shard),
        };
        worker.crash_pending = worker.scheduled_crash();
        worker
    }

    /// The failing-attempt count the fault plan schedules for this shard
    /// on the current tick, if any.
    fn scheduled_crash(&self) -> Option<u32> {
        self.faults
            .crashes_at(self.tick_index)
            .into_iter()
            .find(|(shard, _)| *shard == self.shard)
            .map(|(_, attempts)| attempts)
    }

    fn run(mut self) -> WorkerResult {
        loop {
            let msg = if self.batcher.is_empty() {
                match self.rx.recv() {
                    Ok(msg) => msg,
                    Err(_) => break,
                }
            } else {
                // A batch is pending: wait at most until its deadline,
                // then close it on age.
                let deadline = self
                    .batcher
                    .deadline()
                    .expect("a non-empty batch has a deadline");
                let timeout = deadline.saturating_duration_since(Instant::now());
                match self.rx.recv_timeout(timeout) {
                    Ok(msg) => msg,
                    Err(RecvTimeoutError::Timeout) => {
                        let batch = self.batcher.close();
                        self.process_batch(&batch);
                        continue;
                    }
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            };
            match msg {
                WorkerMsg::Request(env) => {
                    if let Some(batch) = self.batcher.push(env, Instant::now()) {
                        self.process_batch(&batch);
                    }
                }
                WorkerMsg::CloseTick { tick_end } => {
                    let rest = self.batcher.close();
                    self.process_batch(&rest);
                    let tick = self.flush_tick(tick_end);
                    if self.batch_tx.send(tick).is_err() {
                        break;
                    }
                    // Barrier: block until the applier has folded every
                    // shard's batch and refrozen the budget.
                    match self.resume_rx.recv() {
                        Ok(snapshot) => {
                            self.budget = snapshot;
                            self.tick_index += 1;
                            self.tick_degraded = false;
                            self.crash_pending = self.scheduled_crash();
                        }
                        Err(_) => break,
                    }
                }
                WorkerMsg::Shutdown => break,
            }
        }
        WorkerResult {
            extensions: self.decider.extensions,
        }
    }

    /// Executes one closed micro-batch, injecting any crash the fault plan
    /// scheduled for this tick (crashes strike the tick's first batch).
    fn process_batch(&mut self, batch: &[Envelope]) {
        if batch.is_empty() {
            return;
        }
        // Count requests before any crash handling: the replay's restore
        // must not forget that these requests arrived.
        self.acc.requests += batch.len() as u64;
        self.acc.batch_sizes.observe(batch.len() as u64);
        if self.tick_degraded {
            self.shed_batch(batch);
            return;
        }
        if let Some(attempts) = self.crash_pending.take() {
            if attempts > self.max_retries {
                // Attempt 0 and every granted retry die: degrade the rest
                // of the tick to load shedding instead of panicking.
                self.acc.injected += u64::from(self.max_retries) + 1;
                self.acc.unrecoverable += 1;
                self.tick_degraded = true;
                self.shed_batch(batch);
                return;
            }
            // Recoverable: each failing attempt executes a prefix of the
            // batch against real state — dying one request deeper each
            // time, the most hostile partial mutation — and then the
            // worker's whole decide state is restored from a batch-start
            // clone, as the batch supervisor restores a `ShardState`.
            let start = (self.users.clone(), self.decider.clone(), self.acc.clone());
            {
                let guard = self.platform.read();
                let platform: &Platform = &guard;
                for attempt in 0..attempts {
                    let prefix = (attempt as usize + 1).min(batch.len());
                    for env in &batch[..prefix] {
                        self.serve_one(platform, env, false);
                    }
                    (self.users, self.decider, self.acc) = start.clone();
                }
            }
            // Counted after the loop: each restore resets the accumulator.
            self.acc.injected += u64::from(attempts);
            self.acc.recovered += 1;
        }
        let guard = self.platform.read();
        let platform: &Platform = &guard;
        for env in batch {
            self.serve_one(platform, env, true);
        }
    }

    /// Serves one request. With `deliver` false (crash-replay attempts)
    /// the simulation state mutates identically but no response is sent,
    /// no latency is observed, and the queue depth is untouched — the
    /// attempt will be rolled back wholesale.
    fn serve_one(&mut self, platform: &Platform, env: &Envelope, deliver: bool) {
        let req = env.req;
        let tracing = self.trace.enabled;
        // Unknown users are rejected before any state moves (the batch
        // engine never generates them; a serving client can).
        if platform.profiles.get(req.user).is_err() {
            if deliver {
                self.acc.shed += 1;
                self.acc.shed_unknown_user += 1;
                let mut trace_id = TraceId(0);
                if tracing {
                    trace_id = req.shed_trace_id(self.seed);
                    let (mut t, span) = req.shed_trace(trace_id, "unknown_user");
                    t.set_span_wall(span, 0, env.accepted.elapsed().as_nanos() as u64);
                    self.acc.traces.push(t);
                }
                self.reply(
                    env,
                    Response::Rejected {
                        reason: RejectReason::UnknownUser,
                        retry_after_ms: 0,
                    },
                    trace_id,
                );
            }
            return;
        }
        // Unknown sites are served an empty page without simulating —
        // `ShardState::run_tick` skips them without counting, and the
        // event batches must agree.
        let site = match self.sites.get(req.site) {
            Some(site) => site,
            None => {
                if deliver {
                    self.reply(
                        env,
                        Response::Served(ServedPage {
                            at: req.at,
                            ads: Vec::new(),
                            slots: 0,
                        }),
                        TraceId(0),
                    );
                }
                return;
            }
        };
        self.acc.page_views += 1;
        let seed = self.seed;
        let user = self
            .users
            .entry(req.user)
            .or_insert_with(|| Viewer::new(seed, req.user));
        // The trace id is keyed on the page view's first merge key —
        // `user.seq` before pixels consume any — the identical derivation
        // the batch engine's shard uses, so ids are shard-count-invariant
        // and path-invariant (batch vs serving).
        let trace_id = if tracing {
            TraceId::from_key(seed, req.at, req.user.raw(), user.seq)
        } else {
            TraceId(0)
        };
        if tracing {
            // Every request leaves its canonical key behind (allocation
            // -free) so the applier can materialize tail traces for the
            // whole window if this tick breaches the SLO. Full span/event
            // detail rides on the deterministic head-sampling decision.
            self.acc.trace_keys.push(TraceKey {
                id: trace_id,
                at: req.at,
                user: req.user.raw(),
                user_seq: user.seq,
            });
        }
        let sampled = tracing && self.trace.sampled(trace_id);
        let mut trace =
            sampled.then(|| RequestTrace::new(trace_id, req.at, req.user.raw(), user.seq, true));
        let root = trace.as_mut().map(|t| {
            let root = t.span("request", None, req.at);
            t.event(
                root,
                TraceEventKind::Admitted {
                    shard: self.shard as u32,
                },
            );
            let wait = t.span("batch_wait", Some(root), req.at);
            t.set_span_wall(wait, 0, env.accepted.elapsed().as_nanos() as u64);
            root
        });
        let mut ads = Vec::with_capacity(usize::from(site.ad_slots_per_view));
        // The read lock holds the platform and the tick's budget snapshot
        // still, but the worker interleaves users, so one stage-1 build
        // serves the slots of this request only.
        let mut matched = false;
        let mut decide_start = 0;
        self.decider.decide_view(
            platform,
            self.budget.as_ref(),
            PageView {
                at: req.at,
                user: req.user,
                site,
            },
            user,
            &mut matched,
            &mut self.acc.events,
            &mut self.acc.stats,
            trace.as_mut().zip(root),
            |step| match step {
                SlotStep::Start if sampled => {
                    decide_start = env.accepted.elapsed().as_nanos() as u64;
                }
                SlotStep::Decided { decision, trace } => {
                    self.acc.compiled_evals += u64::from(decision.breakdown.compiled_evals);
                    if let Some((t, span)) = trace {
                        let end = env.accepted.elapsed().as_nanos() as u64;
                        t.set_span_wall(span, decide_start, end.saturating_sub(decide_start));
                    }
                }
                SlotStep::Delivered { ad, .. } => ads.push(ad),
                _ => {}
            },
        );
        self.acc.match_sets += u64::from(matched);
        if let Some(mut t) = trace.take() {
            if let Some(root) = root {
                t.set_span_wall(root, 0, env.accepted.elapsed().as_nanos() as u64);
            }
            self.acc.traces.push(t);
        }
        if deliver {
            self.reply(
                env,
                Response::Served(ServedPage {
                    at: req.at,
                    ads,
                    slots: u32::from(site.ad_slots_per_view),
                }),
                trace_id,
            );
        }
    }

    /// Sheds a whole batch with `ShardFailure`, itemizing the abandoned
    /// work exactly as the batch supervisor's `skip_tick` does.
    fn shed_batch(&mut self, batch: &[Envelope]) {
        for env in batch {
            self.acc.shed += 1;
            self.acc.shed_failure += 1;
            if let Some(site) = self.sites.get(env.req.site) {
                let lost = self.acc.lost.get_or_insert_with(|| LostWork {
                    tick: self.tick_index,
                    shard: self.shard,
                    ..LostWork::default()
                });
                lost.page_views += 1;
                lost.pixel_fires += site.pixels.len() as u64;
                lost.opportunities += u64::from(site.ad_slots_per_view);
            }
            let mut trace_id = TraceId(0);
            if self.trace.enabled {
                trace_id = env.req.shed_trace_id(self.seed);
                let (mut t, span) = env.req.shed_trace(trace_id, "shard_failure");
                t.event(
                    span,
                    TraceEventKind::FaultDegraded {
                        what: "shard_tick_degraded",
                        detail: self.tick_index,
                    },
                );
                t.set_span_wall(span, 0, env.accepted.elapsed().as_nanos() as u64);
                self.acc.traces.push(t);
            }
            self.reply(
                env,
                Response::Rejected {
                    reason: RejectReason::ShardFailure,
                    retry_after_ms: self.retry_after_ms,
                },
                trace_id,
            );
        }
    }

    /// Sends the response, observing end-to-end latency and releasing the
    /// request's admission-queue slot. Exactly once per envelope.
    fn reply(&mut self, env: &Envelope, response: Response, trace: TraceId) {
        let latency = env.accepted.elapsed().as_nanos() as u64;
        self.acc.latency.observe(latency);
        if trace.0 != 0 && self.acc.exemplar.is_none_or(|(worst, _)| latency > worst) {
            self.acc.exemplar = Some((latency, trace));
        }
        // A dropped ticket (client gave up) is not an error.
        let _ = env.reply.send(response);
        self.depth.fetch_sub(1, Ordering::SeqCst);
    }

    fn flush_tick(&mut self, tick_end: u64) -> TickBatch {
        let mut batch = std::mem::replace(&mut self.acc, TickBatch::new(self.shard));
        batch.tick_end = tick_end;
        sort_arrival_order(&mut batch.events);
        batch
    }
}

/// Sorts a worker's tick events by [`ShardEvent::key`], given that they
/// were produced in request-arrival order.
///
/// Requests reach a worker with non-decreasing `at`, so the events are
/// already in key order except where requests sharing a simulated
/// millisecond arrived in descending user order: a few dozen events in
/// a ~12k-event batch. Each such event is inserted into the sorted
/// prefix. Once the moves exceed the batch length (a client breaking the
/// non-decreasing `at` contract) the rest falls back to a full stable
/// sort, so the cost stays O(n log n). Both paths are stable sorts by the
/// key, so the result is the order `sort_by_cached_key` gives. Returns
/// whether the full sort ran.
fn sort_arrival_order(events: &mut [ShardEvent]) -> bool {
    let mut moves = 0;
    for i in 1..events.len() {
        let key = events[i].key();
        if events[i - 1].key() <= key {
            continue;
        }
        let to = events[..i].partition_point(|e| e.key() <= key);
        moves += i - to;
        if moves > events.len() {
            // Stable; sorts (key, index) pairs, not the wide events.
            events.sort_by_cached_key(ShardEvent::key);
            return true;
        }
        events[to..=i].rotate_right(1);
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use adplatform::delivery::PendingImpression;
    use adsim_types::{AccountId, AdId, CampaignId, Money, PixelId};

    /// One request's events: a pixel fire and, when `won`, an impression.
    fn view(at: u64, user: u64, seq: u64, won: bool) -> Vec<ShardEvent> {
        let (at, user) = (SimTime(at), UserId(user));
        let mut events = vec![ShardEvent::PixelFire {
            at,
            user,
            user_seq: seq,
            pixel: PixelId(1),
        }];
        if won {
            events.push(ShardEvent::Impression {
                at,
                user,
                user_seq: seq + 1,
                pending: PendingImpression {
                    ad: AdId(1),
                    campaign: CampaignId(1),
                    account: AccountId(1),
                    user,
                    at,
                    clearing_cpm: Money::dollars(2),
                    spec_digest: 0,
                },
            });
        }
        events
    }

    /// Sorts `events` both ways, asserts the same order, and returns
    /// whether the arrival-order sort fell back to the full sort.
    fn sort_both_ways(events: Vec<ShardEvent>) -> bool {
        let mut want = events.clone();
        want.sort_by_cached_key(ShardEvent::key);
        let mut got = events;
        let fell_back = sort_arrival_order(&mut got);
        assert_eq!(got, want);
        fell_back
    }

    #[test]
    fn arrival_order_sort_matches_the_full_sort() {
        // Already sorted: nothing moves.
        let sorted: Vec<_> = (0..50)
            .flat_map(|i| view(i, 1 + i % 7, i, i % 3 == 0))
            .collect();
        assert!(!sort_both_ways(sorted));

        // Same-millisecond ties from descending users, one a pixel fire
        // plus an impression, amid in-order traffic: the insertion path
        // fixes them in place.
        let mut ties: Vec<_> = (0..10).flat_map(|i| view(i, 1, 2 * i, true)).collect();
        ties.extend(view(10, 9, 0, false));
        ties.extend(view(10, 4, 0, true));
        ties.extend(view(10, 2, 6, true));
        ties.extend(view(11, 3, 2, false));
        ties.extend(view(12, 8, 1, true));
        ties.extend(view(12, 5, 4, false));
        assert!(!sort_both_ways(ties));

        // Reversed: the moves pass the batch length and the rest takes
        // the full sort.
        let reversed: Vec<_> = (0..40)
            .rev()
            .flat_map(|i| view(i, 1, 2 * i, true))
            .collect();
        assert!(sort_both_ways(reversed));

        assert!(!sort_both_ways(Vec::new()));
    }
}
