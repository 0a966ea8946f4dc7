//! The request-driven front end and its orchestration.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use adplatform::Platform;
use crossbeam::channel::{self, Receiver, Sender};
use parking_lot::{Mutex, RwLock};
use treads_engine::{register_run_counters, ResilienceOptions};
use treads_resilience::{FaultPlan, ReceiptLedger};
use treads_telemetry::{RequestTrace, Telemetry, TraceConfig, TraceId};
use treads_workload::ShardPlan;
use websim::SiteRegistry;

use adsim_types::UserId;

use crate::admission::{Admission, AdmissionController};
use crate::applier::run_applier;
use crate::config::ServingConfig;
use crate::report::ServingOutcome;
use crate::request::{OpportunityRequest, RejectReason, Response, Ticket};
use crate::worker::{run_worker, Envelope, WorkerContext, WorkerMsg, WorkerResult};

/// The client-facing handle of a serving run.
///
/// Handed by reference to the client closure of
/// [`ServingEngine::serve`]; shareable across client threads (`submit`
/// takes `&self`). Submissions must carry non-decreasing simulated
/// timestamps — the serving clock, like the platform's, only moves
/// forward; a request whose `at` crosses a tick boundary closes every
/// intervening tick (flush, canonical fold, budget refreeze) before it is
/// enqueued.
pub struct Frontend {
    tick_ms: u64,
    horizon_ms: u64,
    retry_after_ms: u64,
    seed: u64,
    /// Effective trace policy (disabled when the run's telemetry is).
    trace: TraceConfig,
    admission: AdmissionController,
    faults: FaultPlan,
    /// End of the currently open tick. Also the submission serialization
    /// point: ticks close under this lock, so no request can slip into a
    /// worker queue behind its own tick's `CloseTick`.
    clock: Mutex<u64>,
    worker_txs: Vec<Sender<WorkerMsg>>,
    ack_rx: Receiver<()>,
    depths: Vec<Arc<AtomicU64>>,
    /// Submissions so far; also the brownout call index.
    calls: AtomicU64,
    shed_overload: AtomicU64,
    shed_brownout: AtomicU64,
    shed_after_horizon: AtomicU64,
    shed_failure: AtomicU64,
    /// Tail traces for requests shed before reaching a worker (brownout,
    /// after-horizon, overload); offered to telemetry when the run ends.
    shed_traces: Mutex<Vec<RequestTrace>>,
}

impl Frontend {
    /// Submits one impression opportunity, returning a [`Ticket`] for its
    /// response.
    ///
    /// Never blocks on simulation work: front-end rejections (brownout,
    /// after-horizon, overload) resolve instantly, admitted requests
    /// resolve when the owning shard's micro-batch closes. The only
    /// blocking inside `submit` is the tick-close barrier when this
    /// request's timestamp opens a new tick.
    pub fn submit(&self, req: OpportunityRequest) -> Ticket {
        // Brownouts reject by global call index — deterministic under any
        // thread interleaving of a single-threaded client, and exactly the
        // semantics of the batch-side FlakyPlatform wrapper.
        let call = self.calls.fetch_add(1, Ordering::SeqCst);
        if self.faults.api_unavailable(call) {
            self.shed_brownout.fetch_add(1, Ordering::SeqCst);
            // Brownouts are keyed by call index: `at`/`user` would collide
            // for retries of the same opportunity, and the call index is
            // the deterministic quantity the fault plan itself consults.
            self.record_shed(TraceId::from_call(self.seed, call), req, "brownout");
            return Ticket::ready(Response::Rejected {
                reason: RejectReason::Brownout,
                retry_after_ms: self.retry_after_ms,
            });
        }
        let mut clock = self.clock.lock();
        if req.at.0 >= self.horizon_ms {
            self.shed_after_horizon.fetch_add(1, Ordering::SeqCst);
            self.record_shed(req.shed_trace_id(self.seed), req, "after_horizon");
            return Ticket::ready(Response::Rejected {
                reason: RejectReason::AfterHorizon,
                retry_after_ms: 0,
            });
        }
        while req.at.0 >= *clock {
            self.close_tick(&mut clock);
        }
        let shard = ShardPlan::shard_index(req.user, self.worker_txs.len());
        let depth = self.depths[shard].load(Ordering::SeqCst);
        match self.admission.decide(depth) {
            Admission::Shed { retry_after_ms } => {
                self.shed_overload.fetch_add(1, Ordering::SeqCst);
                self.record_shed(req.shed_trace_id(self.seed), req, "overload");
                Ticket::ready(Response::Rejected {
                    reason: RejectReason::Overload,
                    retry_after_ms,
                })
            }
            Admission::Admit => {
                self.depths[shard].fetch_add(1, Ordering::SeqCst);
                let (reply_tx, reply_rx) = channel::bounded(1);
                let envelope = Envelope {
                    req,
                    accepted: Instant::now(),
                    reply: reply_tx,
                };
                if self.worker_txs[shard]
                    .send(WorkerMsg::Request(envelope))
                    .is_err()
                {
                    // The worker is gone; release the slot and degrade.
                    self.depths[shard].fetch_sub(1, Ordering::SeqCst);
                    self.shed_failure.fetch_add(1, Ordering::SeqCst);
                    self.record_shed(req.shed_trace_id(self.seed), req, "shard_failure");
                    return Ticket::ready(Response::Rejected {
                        reason: RejectReason::ShardFailure,
                        retry_after_ms: self.retry_after_ms,
                    });
                }
                Ticket::pending(reply_rx, self.retry_after_ms)
            }
        }
    }

    /// Records an always-retained tail trace for a front-end shed.
    fn record_shed(&self, id: TraceId, req: OpportunityRequest, reason: &'static str) {
        if self.trace.enabled {
            self.shed_traces.lock().push(req.shed_trace(id, reason).0);
        }
    }

    /// The number of requests currently in flight to `user`'s shard —
    /// what admission control would judge the next submission against.
    pub fn queue_depth(&self, user: UserId) -> u64 {
        let shard = ShardPlan::shard_index(user, self.worker_txs.len());
        self.depths[shard].load(Ordering::SeqCst)
    }

    /// Closes the tick ending at `*clock`: every worker flushes and hands
    /// its batch to the applier, the applier folds and refreezes, and its
    /// ack releases this (clock-holding) thread to advance. The applier
    /// acks before the tick's bookkeeping, which finishes while the next
    /// tick admits requests.
    fn close_tick(&self, clock: &mut u64) {
        let tick_end = *clock;
        for tx in &self.worker_txs {
            let _ = tx.send(WorkerMsg::CloseTick { tick_end });
        }
        let _ = self.ack_rx.recv();
        *clock = (tick_end + self.tick_ms).min(self.horizon_ms);
    }

    /// Closes every remaining tick through the horizon (so a serving run
    /// always executes `ceil(horizon/tick)` ticks, like the batch engine)
    /// and shuts the workers down.
    fn finish(&self) {
        let mut clock = self.clock.lock();
        loop {
            let was_final = *clock >= self.horizon_ms;
            self.close_tick(&mut clock);
            if was_final {
                break;
            }
        }
        for tx in &self.worker_txs {
            let _ = tx.send(WorkerMsg::Shutdown);
        }
    }
}

/// The request-driven serving engine: owns the worker pool topology and
/// runs clients against a platform.
///
/// A serving run is scoped: [`ServingEngine::serve`] spawns the shard
/// workers and the applier, hands the client closure a [`Frontend`], and
/// tears everything down (closing all remaining ticks) when the closure
/// returns. The platform is borrowed mutably for the whole run and comes
/// back folded exactly as a batch-engine run would leave it.
pub struct ServingEngine {
    config: ServingConfig,
}

impl ServingEngine {
    /// An engine with the given configuration.
    pub fn new(config: ServingConfig) -> Self {
        assert!(config.shards > 0, "serving needs at least one shard");
        assert!(config.tick_ms > 0, "serving needs a positive tick length");
        assert!(config.horizon_ms > 0, "serving needs a positive horizon");
        Self { config }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &ServingConfig {
        &self.config
    }

    /// Runs `client` against a fault-free, unrecorded serving stack.
    pub fn serve<T>(
        &self,
        platform: &mut Platform,
        sites: &SiteRegistry,
        extension_users: &BTreeSet<UserId>,
        client: impl FnOnce(&Frontend) -> T,
    ) -> (ServingOutcome, T) {
        let mut telemetry = Telemetry::disabled();
        self.serve_with_telemetry(
            platform,
            sites,
            extension_users,
            &ResilienceOptions::default(),
            &mut telemetry,
            client,
        )
    }

    /// [`ServingEngine::serve`] under a fault plan, recording into the
    /// caller's `telemetry` handle.
    ///
    /// `options.faults` degrades serving instead of killing it: scheduled
    /// shard crashes within the retry budget recover byte-identically;
    /// beyond it the shard's tick sheds with retry-after hints. Brownouts
    /// reject deterministically by submission index.
    /// `options.checkpoint_every_ticks` is ignored — a serving run has no
    /// pre-scheduled workload to resume against.
    pub fn serve_with_telemetry<T>(
        &self,
        platform: &mut Platform,
        sites: &SiteRegistry,
        extension_users: &BTreeSet<UserId>,
        options: &ResilienceOptions,
        telemetry: &mut Telemetry,
        client: impl FnOnce(&Frontend) -> T,
    ) -> (ServingOutcome, T) {
        let cfg = &self.config;
        let shards = cfg.shards;
        // The run's trace policy: the config's, degraded to disabled when
        // telemetry itself is off (tracing can then cost nothing).
        telemetry.set_trace_config(cfg.trace);
        let trace = telemetry.trace_config();
        // Every counter a serving snapshot must carry exists from the
        // first tick, at zero: the ones the batch engine carries too, then
        // serving's own.
        register_run_counters(telemetry);
        for name in [
            "serving.requests",
            "serving.shed",
            "serving.slo_breach",
            "serving.merge_conflicts",
        ] {
            telemetry.count(name, 0);
        }

        // The applier (the single writer) owns the receipt ledger, so
        // receipts append in the same canonical fold order as the batch
        // engine's. Commitment-only, like the batch engine: heads are
        // maintained online, chains rematerialize from the impression
        // log.
        let ledger = cfg
            .ledger
            .then(|| ReceiptLedger::commitment_only(cfg.seed, cfg.tick_ms));

        let initial_budget = Arc::new(platform.billing.budget_snapshot());
        let lock = RwLock::new(platform);

        let (batch_tx, batch_rx) = channel::unbounded();
        let (ack_tx, ack_rx) = channel::bounded(1);
        let mut worker_txs = Vec::with_capacity(shards);
        let mut worker_rxs = Vec::with_capacity(shards);
        let mut resume_txs = Vec::with_capacity(shards);
        let mut resume_rxs = Vec::with_capacity(shards);
        let mut depths = Vec::with_capacity(shards);
        for _ in 0..shards {
            let (tx, rx) = channel::unbounded();
            worker_txs.push(tx);
            worker_rxs.push(rx);
            let (resume_tx, resume_rx) = channel::bounded(1);
            resume_txs.push(resume_tx);
            resume_rxs.push(resume_rx);
            depths.push(Arc::new(AtomicU64::new(0)));
        }

        let frontend = Frontend {
            tick_ms: cfg.tick_ms,
            horizon_ms: cfg.horizon_ms,
            retry_after_ms: cfg.retry_after_ms,
            seed: cfg.seed,
            trace,
            admission: AdmissionController::new(cfg.queue_watermark, cfg.retry_after_ms),
            faults: options.faults.clone(),
            clock: Mutex::new(cfg.tick_ms.min(cfg.horizon_ms)),
            worker_txs,
            ack_rx,
            depths: depths.clone(),
            calls: AtomicU64::new(0),
            shed_overload: AtomicU64::new(0),
            shed_brownout: AtomicU64::new(0),
            shed_after_horizon: AtomicU64::new(0),
            shed_failure: AtomicU64::new(0),
            shed_traces: Mutex::new(Vec::new()),
        };

        let lock_ref = &lock;
        let telemetry_ref = &mut *telemetry;
        let (mut outcome, worker_results, client_out) = crossbeam::scope(|s| {
            let worker_handles: Vec<_> = worker_rxs
                .into_iter()
                .zip(resume_rxs)
                .enumerate()
                .map(|(shard, (rx, resume_rx))| {
                    let ctx = WorkerContext {
                        shard,
                        shards,
                        seed: cfg.seed,
                        retry_after_ms: cfg.retry_after_ms,
                        max_retries: options.max_retries_per_shard_tick,
                        faults: options.faults.clone(),
                        platform: lock_ref,
                        sites,
                        extension_users,
                        rx,
                        batch_tx: batch_tx.clone(),
                        resume_rx,
                        depth: depths[shard].clone(),
                        budget: initial_budget.clone(),
                        max_batch: cfg.max_batch,
                        max_delay: cfg.max_delay,
                        trace,
                    };
                    s.spawn(move |_| run_worker(ctx))
                })
                .collect();
            // Workers hold the only remaining batch senders; the applier
            // exits when the last of them shuts down.
            drop(batch_tx);
            let applier_handle = s.spawn(move |_| {
                run_applier(
                    lock_ref,
                    shards,
                    cfg.seed,
                    batch_rx,
                    &resume_txs,
                    ack_tx,
                    cfg.slo,
                    telemetry_ref,
                    ledger,
                )
            });
            let client_out = client(&frontend);
            frontend.finish();
            let worker_results: Vec<WorkerResult> = worker_handles
                .into_iter()
                .map(|h| h.join().expect("serving worker panicked"))
                .collect();
            let outcome = applier_handle.join().expect("serving applier panicked");
            (outcome, worker_results, client_out)
        })
        .expect("serving scope");

        let platform: &mut Platform = lock.into_inner();
        telemetry.count("targeting.facet_updates", platform.profiles.facet_updates());

        // Front-end rejections never reach a worker: they join the
        // request and shed totals here, so `requests == served + shed`
        // holds across both layers.
        let r = &mut outcome.report;
        r.shed_overload = frontend.shed_overload.into_inner();
        r.shed_brownout = frontend.shed_brownout.into_inner();
        r.shed_after_horizon = frontend.shed_after_horizon.into_inner();
        let shed_failure = frontend.shed_failure.into_inner();
        r.shed_failure += shed_failure;
        let shed = r.shed_overload + r.shed_brownout + r.shed_after_horizon + shed_failure;
        r.requests += shed;
        r.shed += shed;
        telemetry.count("serving.requests", shed);
        telemetry.count("serving.shed", shed);
        // A browned-out submission is one injected fault activation, like
        // one failing call through the batch-side FlakyPlatform.
        telemetry.count("faults.injected", r.shed_brownout);
        outcome.faults.injected += r.shed_brownout;
        debug_assert_eq!(
            r.requests,
            frontend.calls.into_inner(),
            "every submission accounted"
        );
        debug_assert_eq!(r.requests, r.served + r.shed);
        // Front-end sheds are tail traces too: offered last, in canonical
        // key order, all always-retained.
        let mut shed_traces = frontend.shed_traces.into_inner();
        shed_traces.sort_by_key(RequestTrace::key);
        for t in shed_traces {
            telemetry.offer_trace(t);
        }
        for result in worker_results {
            outcome.extensions.extend(result.extensions);
        }
        (outcome, client_out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adplatform::attributes::{AttributeCatalog, AttributeSource};
    use adplatform::auction::AuctionConfig;
    use adplatform::campaign::AdCreative;
    use adplatform::profile::Gender;
    use adplatform::targeting::{TargetingExpr, TargetingSpec};
    use adplatform::PlatformConfig;
    use adsim_types::{Money, SimTime, SiteId};
    use std::time::Duration;
    use treads_engine::DAY_MS;

    /// One everyone-targeted campaign with ample budget, `n` users, two
    /// sites (the second carrying a pixel) — the engine tests' scenario.
    fn scenario(n: u64) -> (Platform, SiteRegistry, Vec<UserId>) {
        let mut catalog = AttributeCatalog::new();
        catalog.register("Interest: coffee", AttributeSource::Platform, None, 0.3);
        let mut p = Platform::new(
            PlatformConfig {
                auction: AuctionConfig {
                    competitor_rate: 0.0,
                    ..AuctionConfig::default()
                },
                frequency_cap: 1_000,
                ..PlatformConfig::default()
            },
            catalog,
        );
        let adv = p.register_advertiser("adv");
        let acct = p.open_account(adv).expect("account");
        let camp = p
            .create_campaign(acct, "c", Money::dollars(5), None)
            .expect("campaign");
        p.submit_ad(
            camp,
            AdCreative::text("Hello", "World"),
            TargetingSpec::including(TargetingExpr::Everyone),
        )
        .expect("ad");
        let users: Vec<UserId> = (0..n)
            .map(|i| p.register_user(20 + (i % 50) as u8, Gender::Female, "Ohio", "43004"))
            .collect();
        let mut sites = SiteRegistry::new();
        sites.create("feed.example", 1);
        let with_pixel = sites.create("shop.example", 1);
        let pixel = p.create_pixel(acct, "shop pixel").expect("pixel");
        sites.embed_pixel(with_pixel, pixel);
        (p, sites, users)
    }

    fn config(shards: usize) -> ServingConfig {
        ServingConfig {
            shards,
            tick_ms: DAY_MS,
            horizon_ms: 2 * DAY_MS,
            seed: 7,
            max_batch: 1, // flush instantly: tests wait on each ticket
            max_delay: Duration::from_millis(50),
            queue_watermark: u64::MAX >> 1,
            retry_after_ms: 10,
            ..ServingConfig::default()
        }
    }

    #[test]
    fn serves_requests_and_accounts_exactly() {
        let (mut p, sites, users) = scenario(4);
        let engine = ServingEngine::new(config(2));
        let extension_users: BTreeSet<UserId> = users.iter().copied().collect();
        let site_ids = sites.ids();
        let (outcome, served_pages) = engine.serve(&mut p, &sites, &extension_users, |frontend| {
            let mut served = 0u64;
            // Every user views both sites on both days.
            for day in 0..2u64 {
                for (i, &user) in users.iter().enumerate() {
                    for (j, &site) in site_ids.iter().enumerate() {
                        let at = SimTime(day * DAY_MS + 1_000 * (i as u64 * 10 + j as u64));
                        let response = frontend
                            .submit(OpportunityRequest { user, site, at })
                            .wait();
                        assert!(response.is_served(), "healthy run serves everything");
                        served += u64::from(response.is_served());
                    }
                }
            }
            served
        });
        assert_eq!(served_pages, 16);
        let r = &outcome.report;
        assert_eq!(r.shards, 2);
        assert_eq!(r.ticks, 2);
        assert_eq!(r.requests, 16);
        assert_eq!(r.served, 16);
        assert_eq!(r.shed, 0);
        assert_eq!(r.page_views, 16);
        assert_eq!(r.opportunities, 16);
        assert!(r.impressions > 0);
        // The platform was folded: log, stats, and billing all moved.
        assert_eq!(p.log.all().len() as u64, r.impressions);
        assert_eq!(p.stats.won, r.impressions);
        // Extension logs observed every delivered impression.
        let observed: u64 = outcome.extensions.values().map(|l| l.len() as u64).sum();
        assert_eq!(observed, r.impressions);
        assert!(outcome.faults.is_clean());
        // Latency was measured for every answered request.
        assert_eq!(r.latency.count(), 16);
        assert_eq!(r.slo_windows, 2);
    }

    /// The applier acks the front end before a tick's bookkeeping, yet
    /// that bookkeeping still lands before the run returns, the last
    /// tick's included: under an SLO every non-empty window breaches,
    /// every window is judged and every request of the last tick keeps a
    /// tail trace, though head sampling keeps none.
    #[test]
    fn bookkeeping_after_the_ack_still_lands_for_the_last_tick() {
        let (mut p, sites, users) = scenario(4);
        let engine = ServingEngine::new(ServingConfig {
            horizon_ms: 3 * DAY_MS,
            trace: TraceConfig {
                sample_per_mille: 0,
                ..TraceConfig::default()
            },
            slo: treads_telemetry::SloTarget {
                quantile: 0.99,
                target_ns: 0,
            },
            ..config(2)
        });
        let site = sites.ids()[0];
        let mut telemetry = Telemetry::new();
        // Ticks 0 and 2 serve every user once; tick 1 serves nobody.
        let (outcome, ()) = engine.serve_with_telemetry(
            &mut p,
            &sites,
            &BTreeSet::new(),
            &ResilienceOptions::default(),
            &mut telemetry,
            |frontend| {
                for day in [0, 2] {
                    for (i, &user) in users.iter().enumerate() {
                        let at = SimTime(day * DAY_MS + i as u64);
                        let response = frontend.submit(OpportunityRequest { user, site, at });
                        assert!(response.wait().is_served());
                    }
                }
            },
        );
        let r = &outcome.report;
        assert_eq!(r.ticks, 3);
        assert_eq!((r.slo_windows, r.slo_breaches), (2, 2));
        assert_eq!(telemetry.metrics().counter("serving.slo_breach"), 2);
        let last_tick: BTreeSet<u64> = telemetry
            .traces()
            .iter()
            .filter(|t| t.at.0 >= 2 * DAY_MS)
            .map(|t| t.user)
            .collect();
        let all: BTreeSet<u64> = users.iter().map(|u| u.raw()).collect();
        assert_eq!(last_tick, all, "every last-tick request keeps a trace");
        assert_eq!(telemetry.traces().len(), 2 * users.len());
    }

    #[test]
    fn admission_sheds_above_the_watermark() {
        let (mut p, sites, users) = scenario(1);
        let engine = ServingEngine::new(ServingConfig {
            queue_watermark: 1,
            max_batch: 64,
            max_delay: Duration::from_secs(5),
            ..config(1)
        });
        let site = sites.ids()[0];
        let (outcome, tickets) = engine.serve(&mut p, &sites, &BTreeSet::new(), |frontend| {
            // All five land in the same tick; the worker pools them in its
            // micro-batcher (big batch, long delay), so the queue depth
            // stays at 1 after the first admit and the rest shed.
            (0..5u64)
                .map(|i| {
                    frontend.submit(OpportunityRequest {
                        user: users[0],
                        site,
                        at: SimTime(i),
                    })
                })
                .collect::<Vec<_>>()
        });
        let responses: Vec<Response> = tickets.into_iter().map(Ticket::wait).collect();
        assert!(responses[0].is_served());
        for response in &responses[1..] {
            assert_eq!(
                *response,
                Response::Rejected {
                    reason: RejectReason::Overload,
                    retry_after_ms: 10,
                }
            );
        }
        let r = &outcome.report;
        assert_eq!(r.requests, 5);
        assert_eq!(r.served, 1);
        assert_eq!(r.shed, 4);
        assert_eq!(r.shed_overload, 4);
    }

    #[test]
    fn brownouts_reject_deterministically_by_call_index() {
        let (mut p, sites, users) = scenario(1);
        let engine = ServingEngine::new(config(1));
        let site = sites.ids()[0];
        let options = ResilienceOptions {
            faults: FaultPlan::new().brownout(1, 2),
            ..ResilienceOptions::default()
        };
        let mut telemetry = Telemetry::disabled();
        let (outcome, kinds) = engine.serve_with_telemetry(
            &mut p,
            &sites,
            &BTreeSet::new(),
            &options,
            &mut telemetry,
            |frontend| {
                (0..4u64)
                    .map(|i| {
                        frontend
                            .submit(OpportunityRequest {
                                user: users[0],
                                site,
                                at: SimTime(i),
                            })
                            .wait()
                            .is_served()
                    })
                    .collect::<Vec<_>>()
            },
        );
        // Calls 1 and 2 fall inside the brownout; 0 and 3 serve.
        assert_eq!(kinds, vec![true, false, false, true]);
        assert_eq!(outcome.report.shed_brownout, 2);
        assert_eq!(outcome.faults.injected, 2);
    }

    #[test]
    fn horizon_and_unknown_users_are_rejected() {
        let (mut p, sites, users) = scenario(1);
        let engine = ServingEngine::new(config(1));
        let site = sites.ids()[0];
        let (outcome, _) = engine.serve(&mut p, &sites, &BTreeSet::new(), |frontend| {
            let late = frontend
                .submit(OpportunityRequest {
                    user: users[0],
                    site,
                    at: SimTime(2 * DAY_MS),
                })
                .wait();
            assert_eq!(
                late,
                Response::Rejected {
                    reason: RejectReason::AfterHorizon,
                    retry_after_ms: 0,
                }
            );
            let stranger = frontend
                .submit(OpportunityRequest {
                    user: UserId(999_999),
                    site,
                    at: SimTime(5),
                })
                .wait();
            assert_eq!(
                stranger,
                Response::Rejected {
                    reason: RejectReason::UnknownUser,
                    retry_after_ms: 0,
                }
            );
            // An unregistered site serves an empty page (the batch engine
            // skips those page views without simulating them).
            let ghost_site = frontend
                .submit(OpportunityRequest {
                    user: users[0],
                    site: SiteId(999),
                    at: SimTime(6),
                })
                .wait();
            assert_eq!(ghost_site.page().expect("served").slots, 0);
        });
        let r = &outcome.report;
        assert_eq!(r.requests, 3);
        assert_eq!(r.shed_after_horizon, 1);
        assert_eq!(r.shed_unknown_user, 1);
        assert_eq!(r.served, 1);
        assert_eq!(r.page_views, 0, "no request reached a real page view");
    }

    #[test]
    fn micro_batches_close_on_age_without_tick_traffic() {
        let (mut p, sites, users) = scenario(1);
        let engine = ServingEngine::new(ServingConfig {
            max_batch: 1_000,
            max_delay: Duration::from_millis(2),
            ..config(1)
        });
        let site = sites.ids()[0];
        let (outcome, _) = engine.serve(&mut p, &sites, &BTreeSet::new(), |frontend| {
            // Far fewer requests than max_batch: only the age trigger can
            // close this batch before the tick does — and waiting on the
            // ticket proves it fires.
            let ticket = frontend.submit(OpportunityRequest {
                user: users[0],
                site,
                at: SimTime(1),
            });
            assert!(ticket.wait().is_served());
        });
        assert_eq!(outcome.report.served, 1);
    }

    /// A recoverable crash replays a growing prefix of the tick's first
    /// micro-batch against real state, once per failing attempt, and rolls
    /// the worker back before the next try. Every output but the fault
    /// tally equals a fault-free run's, with single- and multi-request
    /// micro-batches and every request traced.
    #[test]
    fn crash_replays_roll_back_everything_but_the_fault_counts() {
        let run = |max_batch: usize, faults: FaultPlan| {
            let (mut p, sites, users) = scenario(4);
            let options = ResilienceOptions {
                faults,
                ..ResilienceOptions::default()
            };
            let engine = ServingEngine::new(ServingConfig {
                max_batch,
                trace: TraceConfig::full(),
                // Wall-clock latency must not decide an SLO breach here.
                slo: treads_telemetry::SloTarget::p99_ms(3_600_000),
                ..config(2)
            });
            let mut telemetry = Telemetry::new();
            let site_ids = sites.ids();
            let extension_users: BTreeSet<UserId> = users.iter().copied().collect();
            let (mut outcome, ()) = engine.serve_with_telemetry(
                &mut p,
                &sites,
                &extension_users,
                &options,
                &mut telemetry,
                |frontend| {
                    let mut tickets = Vec::new();
                    for (i, &user) in users.iter().enumerate() {
                        for (j, &site) in site_ids.iter().enumerate() {
                            let at = SimTime(1_000 * (i as u64 * 10 + j as u64));
                            tickets.push(frontend.submit(OpportunityRequest { user, site, at }));
                        }
                    }
                    assert!(tickets.into_iter().all(|t| t.wait().is_served()));
                },
            );
            outcome.report.latency = treads_telemetry::Histogram::latency_ns();
            let counters: Vec<_> = telemetry
                .metrics()
                .counters()
                .iter()
                .filter(|(name, _)| !name.starts_with("faults."))
                .map(|(&name, &n)| (name, n))
                .collect();
            let traces: Vec<TraceId> = telemetry.traces().iter().map(|t| t.id).collect();
            (outcome, counters, traces, p.log.all().to_vec())
        };
        for max_batch in [1, 4] {
            let (clean, counters, traces, log) = run(max_batch, FaultPlan::new());
            assert!(!traces.is_empty() && !log.is_empty());
            let counter = |name: &str| counters.iter().find(|c| c.0 == name).map_or(0, |c| c.1);
            assert!(
                counter("targeting.compiled_evals") > 0 && counter("targeting.match_sets") > 0,
                "every slot runs a compiled program"
            );
            // Shard 0's first micro-batch dies twice, then succeeds.
            let crashed = run(max_batch, FaultPlan::new().crash_shard(0, 0, 2));
            assert_eq!(
                (crashed.0.faults.injected, crashed.0.faults.recovered),
                (2, 1)
            );
            assert_eq!(crashed.0.report, clean.report, "max_batch {max_batch}");
            assert_eq!(crashed.1, counters, "max_batch {max_batch}");
            assert_eq!(crashed.2, traces, "max_batch {max_batch}");
            assert_eq!(crashed.3, log, "max_batch {max_batch}");
            assert_eq!(crashed.0.extensions, clean.extensions);
        }
    }
}
