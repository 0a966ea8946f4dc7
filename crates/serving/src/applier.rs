//! The tick-close applier: the serving run's single writer.
//!
//! At every tick boundary the applier collects one [`TickBatch`] per
//! shard and merges their events in the canonical `(at, user, user_seq)`
//! order. It folds them with the batch engine's fold passes, split by
//! what the next tick reads. Under the platform's write lock it runs
//! [`treads_engine::publish_tick`], the passes whose stores a decide
//! reads (billing charges, pixel-audience joins). It then refreezes the
//! budget snapshot, hands it to every blocked worker and acks the front
//! end, so the simulated clock advances as soon as those two stores are
//! final. The journal passes ([`treads_engine::journal_tick`]: impression
//! log, receipts, pixel journal, global frequency counts, flight events)
//! and the tick's bookkeeping (counters, the SLO judgement of its latency
//! window, trace retention) run after the ack, while the next tick admits
//! requests, and always before the applier reads the next tick's
//! batches. The journal stores stay with the applier for the whole run
//! ([`TickJournals`]), so journaling never takes the lock the workers
//! decide under. With an enabled telemetry handle the merge and the two
//! fold halves are timed as the batch engine times them
//! (`phase.merge_ns`, `phase.apply_ns`), and the barrier from the first
//! batch received to the ack as `serving.tick_close_ns`.
//!
//! The applier counts every tick straight into the run's
//! [`ServingOutcome`]; the front end adds only the requests it shed
//! itself and the workers' extension logs.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use adplatform::billing::BudgetSnapshot;
use adplatform::Platform;
use adsim_types::{CampaignId, SimTime};
use crossbeam::channel::{Receiver, Sender};
use parking_lot::RwLock;
use treads_engine::{journal_tick, merge_batches_lossy, publish_tick, MergeError, TickJournals};
use treads_resilience::{FaultReport, ReceiptLedger};
use treads_telemetry::{
    span, Histogram, Registry, RequestTrace, SloTarget, SloTracker, Telemetry, TraceEventKind,
    TraceId,
};

use crate::report::{ServingOutcome, ServingReport};
use crate::worker::TickBatch;

/// Runs the applier loop until the workers disconnect the batch channel,
/// and returns the run's outcome: the workers' tallies, the fold counts,
/// the SLO verdicts, the fault report and the ledger.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_applier(
    platform: &RwLock<&mut Platform>,
    shards: usize,
    seed: u64,
    batch_rx: Receiver<TickBatch>,
    resume_txs: &[Sender<Arc<BudgetSnapshot>>],
    ack_tx: Sender<()>,
    slo: SloTarget,
    telemetry: &mut Telemetry,
    ledger: Option<ReceiptLedger>,
) -> ServingOutcome {
    let tracing = telemetry.trace_config().enabled;
    let mut slo = SloTracker::new(slo);
    let mut out = ServingOutcome {
        report: ServingReport {
            shards: shards as u64,
            ..ServingReport::default()
        },
        extensions: BTreeMap::new(),
        faults: FaultReport::default(),
        ledger,
    };
    // Campaigns already journaled crossing their budget (for the
    // once-per-campaign `BudgetExhausted` flight event).
    let mut exhausted: BTreeSet<CampaignId> = BTreeSet::new();
    // The journal stores stay with the applier for the run, so a tick is
    // journaled after the ack without the lock the workers decide under.
    let mut journals = TickJournals::take(&mut platform.write());
    let recording = telemetry.is_enabled();
    'ticks: loop {
        // Barrier collect: exactly one batch per shard per tick. The
        // channel disconnecting (all workers exited) ends the run.
        let mut batches: Vec<TickBatch> = Vec::with_capacity(shards);
        // `serving.tick_close_ns` runs from the first batch in to the ack.
        let mut close = None;
        for _ in 0..shards {
            match batch_rx.recv() {
                Ok(batch) => batches.push(batch),
                Err(_) => break 'ticks,
            }
            close.get_or_insert_with(|| telemetry.span());
        }
        // Shard-index order is the canonical per-tick fold order, exactly
        // as in the batch supervisor.
        batches.sort_by_key(|b| b.shard);
        let tick_end = batches.first().map_or(0, |b| b.tick_end);
        debug_assert!(
            batches.iter().all(|b| b.tick_end == tick_end),
            "tick-close barrier collected batches from different ticks"
        );

        // The barrier publishes only what tick t+1 decides from: merge
        // canonically, charge billing and join pixel audiences, refreeze
        // the budget, resume the blocked workers and ack the front end,
        // whose clock-holding thread waits on the ack to open tick t+1.
        let events: Vec<_> = batches
            .iter_mut()
            .map(|b| std::mem::take(&mut b.events))
            .collect();
        // Lossy merge: a duplicate key can only mean a replay bug, but
        // the front end must degrade (first-writer-wins) and keep serving
        // rather than panic. Conflicts are counted, and each leaves an
        // always-retained trace naming the duplicated key.
        let (merged, conflicts) = span!(telemetry, "phase.merge_ns", merge_batches_lossy(events));
        let (snapshot, publish, publish_ns) = {
            let mut guard = platform.write();
            let p: &mut Platform = &mut guard;
            for batch in &batches {
                p.stats.opportunities += batch.stats.opportunities;
                p.stats.won += batch.stats.won;
                p.stats.lost_to_background += batch.stats.lost_to_background;
                p.stats.unfilled += batch.stats.unfilled;
            }
            let apply = telemetry.span();
            let publish = publish_tick(
                p,
                &journals,
                &merged,
                SimTime(tick_end),
                recording,
                &mut exhausted,
            );
            let publish_ns = apply.elapsed_ns();
            (Arc::new(p.billing.budget_snapshot()), publish, publish_ns)
        };
        for tx in resume_txs {
            let _ = tx.send(snapshot.clone());
        }
        let _ = ack_tx.send(());
        if let Some(close) = close {
            telemetry.end_span("serving.tick_close_ns", close);
        }
        // Let the woken front end run first. The ack often wakes it on
        // this thread's core, and the journals below would otherwise hold
        // that core until they finish: on a 2-thread host the ack reached
        // the front end ~1.1 ms late, after the whole journal.
        std::thread::yield_now();

        // Everything below — the journals, per-batch counters, SLO
        // judgement, trace retention — is work neither the workers nor
        // the front end wait for, so it runs while tick t+1 admits and
        // decides (the serving twin of the batch engine's pipelined
        // tick). This loop reads tick t+1's batches only after it, so
        // every tick is journaled and accounted in order.
        let apply = telemetry.span();
        let fold = journal_tick(
            &mut journals,
            &merged,
            publish,
            out.ledger.as_mut(),
            telemetry,
        );
        telemetry.observe_ns("phase.apply_ns", publish_ns + apply.elapsed_ns());
        out.report.impressions += fold.impressions;
        out.report.pixel_fires += fold.pixel_fires;
        out.report.ticks += 1;

        let mut tick_latency = Histogram::latency_ns();
        let mut reg = Registry::new();
        let mut tick_traces: Vec<RequestTrace> =
            record_merge_conflicts(&conflicts, seed, tracing, telemetry);
        let mut tick_keys = Vec::new();
        for batch in &mut batches {
            tick_traces.append(&mut batch.traces);
            tick_keys.append(&mut batch.trace_keys);
            if let Some((worst_ns, trace_id)) = batch.exemplar.take() {
                telemetry.exemplar("serving.request_latency_ns", worst_ns, trace_id);
            }
            let r = &mut out.report;
            r.requests += batch.requests;
            r.served += batch.requests - batch.shed;
            r.shed += batch.shed;
            r.shed_failure += batch.shed_failure;
            r.shed_unknown_user += batch.shed_unknown_user;
            r.page_views += batch.page_views;
            r.opportunities += batch.stats.opportunities;
            out.faults.injected += batch.injected;
            out.faults.recovered += batch.recovered;
            out.faults.unrecoverable += batch.unrecoverable;
            out.faults.lost.extend(batch.lost.iter().cloned());
            tick_latency.merge(&batch.latency);
            telemetry.count("engine.page_views", batch.page_views);
            telemetry.count("serving.requests", batch.requests);
            telemetry.count("serving.shed", batch.shed);
            telemetry.count("auction.won", batch.stats.won);
            telemetry.count("auction.lost_to_background", batch.stats.lost_to_background);
            telemetry.count("auction.unfilled", batch.stats.unfilled);
            telemetry.count("targeting.match_sets", batch.match_sets);
            telemetry.count("targeting.compiled_evals", batch.compiled_evals);
            telemetry.count("faults.injected", batch.injected);
            telemetry.count("faults.recovered", batch.recovered);
            telemetry.count("faults.unrecoverable", batch.unrecoverable);
            if batch.batch_sizes.count() > 0 {
                reg.merge_histogram("serving.batch_size", &batch.batch_sizes);
            }
        }
        if tick_latency.count() > 0 {
            reg.merge_histogram("serving.request_latency_ns", &tick_latency);
        }
        telemetry.merge_registry(&reg);
        out.report.latency.merge(&tick_latency);
        if slo.observe_window(&tick_latency) {
            telemetry.count("serving.slo_breach", 1);
            // Tail-based retention: the whole breaching window is
            // interesting. Every trace already built this tick is
            // promoted past the head-sampling decision, and every other
            // request of the window is materialized from the worker's
            // allocation-free key journal as a tail stub.
            for t in &mut tick_traces {
                t.retain_always();
                let span = t.span("slo_breach", None, SimTime(tick_end));
                t.event(span, TraceEventKind::SloBreachWindow);
            }
            let already: BTreeSet<_> = tick_traces.iter().map(|t| t.id).collect();
            for k in &tick_keys {
                if !already.contains(&k.id) {
                    let mut t = RequestTrace::tail(k.id, k.at, k.user, k.user_seq);
                    let span = t.span("request", None, k.at);
                    t.event(span, TraceEventKind::SloBreachWindow);
                    tick_traces.push(t);
                }
            }
        }

        // Retention, in canonical key order so the collector's contents
        // are shard-count-invariant. Only retained traces are offered:
        // `trace.dropped` counts collector-capacity evictions, not the
        // head-sampling decision.
        tick_traces.sort_by_key(RequestTrace::key);
        for t in tick_traces {
            if t.retained() {
                telemetry.offer_trace(t);
            }
        }
    }
    journals.restore(&mut platform.write());
    out.report.slo_windows = slo.windows();
    out.report.slo_breaches = slo.breaches();
    out
}

/// Tick-close bookkeeping for lossy-merge conflicts: bumps the
/// `serving.merge_conflicts` counter and, when tracing, returns one tail
/// trace per dropped event naming the duplicated `(at, user, user_seq)`
/// key. Tail traces are always retained — a replayed batch must stay
/// diagnosable even when head sampling would have skipped the request.
fn record_merge_conflicts(
    conflicts: &[MergeError],
    seed: u64,
    tracing: bool,
    telemetry: &mut Telemetry,
) -> Vec<RequestTrace> {
    if conflicts.is_empty() {
        return Vec::new();
    }
    telemetry.count("serving.merge_conflicts", conflicts.len() as u64);
    if !tracing {
        return Vec::new();
    }
    conflicts
        .iter()
        .map(|c| {
            let id = TraceId::from_key(seed, c.at, c.user.raw(), c.user_seq);
            let mut t = RequestTrace::tail(id, c.at, c.user.raw(), c.user_seq);
            let span = t.span("merge_conflict", None, c.at);
            t.event(
                span,
                TraceEventKind::MergeConflict {
                    at: c.at.0,
                    user: c.user.raw(),
                    user_seq: c.user_seq,
                },
            );
            t
        })
        .collect()
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
    use adsim_types::{Money, PixelId, UserId};
    use crossbeam::channel;
    use treads_engine::{ShardEvent, DAY_MS};
    use treads_telemetry::TraceConfig;

    fn fire(at: u64, user: u64, seq: u64) -> ShardEvent {
        ShardEvent::PixelFire {
            at: SimTime(at),
            user: UserId(user),
            user_seq: seq,
            pixel: PixelId(7),
        }
    }

    /// The replay failure mode end to end: the same batch merged twice
    /// degrades first-writer-wins, bumps `serving.merge_conflicts` once
    /// per dropped event, and leaves one always-retained trace naming
    /// each duplicated key — retained even though conflict traces never
    /// ride on head sampling, and kept by the collector.
    #[test]
    fn duplicate_keys_count_and_leave_retained_traces() {
        let batch = vec![fire(5, 2, 0), fire(9, 2, 1)];
        let (merged, conflicts) = merge_batches_lossy(vec![batch.clone(), batch.clone()]);
        assert_eq!(merged, batch, "lossy merge keeps the first writer");
        assert_eq!(conflicts.len(), 2);

        let mut telemetry = Telemetry::new();
        // Head sampling off entirely: retention below must come from the
        // tail path alone.
        telemetry.set_trace_config(TraceConfig {
            sample_per_mille: 0,
            ..TraceConfig::default()
        });
        let traces = record_merge_conflicts(&conflicts, 31, true, &mut telemetry);
        assert_eq!(
            telemetry.metrics().counter("serving.merge_conflicts"),
            2,
            "every dropped event is counted"
        );
        assert_eq!(traces.len(), conflicts.len());
        for (t, c) in traces.iter().zip(&conflicts) {
            assert!(!t.sampled, "conflict traces never head-sample");
            assert!(t.retained(), "conflict traces must be tail-retained");
            assert_eq!(t.spans[0].name, "merge_conflict");
            assert!(
                t.events.iter().any(|e| e.kind
                    == TraceEventKind::MergeConflict {
                        at: c.at.0,
                        user: c.user.raw(),
                        user_seq: c.user_seq,
                    }),
                "trace must name the duplicated key"
            );
        }
        for t in traces {
            assert!(
                telemetry.offer_trace(t),
                "tail traces survive the collector"
            );
        }
        assert_eq!(telemetry.traces().len(), 2);

        // With tracing off the counter still advances; no traces built.
        let mut quiet = Telemetry::new();
        assert!(record_merge_conflicts(&conflicts, 31, false, &mut quiet).is_empty());
        assert_eq!(quiet.metrics().counter("serving.merge_conflicts"), 2);

        // A conflict-free tick touches neither counter nor collector.
        let mut clean = Telemetry::new();
        assert!(record_merge_conflicts(&[], 31, true, &mut clean).is_empty());
        assert_eq!(clean.metrics().counter("serving.merge_conflicts"), 0);
    }

    /// A platform with one campaign, one pixel and four users, and one
    /// tick's events over it: each user fires the pixel and is shown the
    /// ad.
    fn replay_scenario() -> (Platform, Vec<ShardEvent>) {
        let mut p = Platform::new(PlatformConfig::default(), AttributeCatalog::new());
        let adv = p.register_advertiser("adv");
        let account = p.open_account(adv).expect("account");
        let pixel = p.create_pixel(account, "shop").expect("pixel");
        let campaign = p
            .create_campaign(account, "c", Money::dollars(2), None)
            .expect("campaign");
        let ad = p
            .submit_ad(
                campaign,
                AdCreative::text("Hello", "World"),
                TargetingSpec::including(TargetingExpr::Everyone),
            )
            .expect("ad");
        let mut events = Vec::new();
        for i in 0..4u64 {
            let user = p.register_user(30, Gender::Female, "Ohio", "43004");
            let at = SimTime(10 * (i + 1));
            events.push(ShardEvent::PixelFire {
                at,
                user,
                user_seq: 0,
                pixel,
            });
            events.push(ShardEvent::Impression {
                at,
                user,
                user_seq: 1,
                pending: PendingImpression {
                    ad,
                    campaign,
                    account,
                    user,
                    at,
                    clearing_cpm: Money::dollars(2),
                    spec_digest: 0,
                },
            });
        }
        (p, events)
    }

    /// Closes one tick through the applier with `batches` as the shards'
    /// events, receipts and telemetry on, and returns the platform, the
    /// run's outcome and its telemetry.
    fn close_one_tick(batches: Vec<Vec<ShardEvent>>) -> (Platform, ServingOutcome, Telemetry) {
        let (mut platform, _) = replay_scenario();
        let shards = batches.len();
        let (batch_tx, batch_rx) = channel::unbounded();
        for (shard, events) in batches.into_iter().enumerate() {
            let mut batch = TickBatch::new(shard);
            batch.tick_end = DAY_MS;
            batch.events = events;
            batch_tx.send(batch).expect("batch");
        }
        drop(batch_tx);
        let (resume_txs, _resume_rxs): (Vec<_>, Vec<_>) =
            (0..shards).map(|_| channel::bounded(1)).unzip();
        let (ack_tx, _ack_rx) = channel::bounded(1);
        let mut telemetry = Telemetry::new();
        let out = run_applier(
            &RwLock::new(&mut platform),
            shards,
            31,
            batch_rx,
            &resume_txs,
            ack_tx,
            SloTarget::p99_ms(20),
            &mut telemetry,
            Some(ReceiptLedger::commitment_only(31, DAY_MS)),
        );
        (platform, out, telemetry)
    }

    /// A replayed batch is still billed once: two shards handing the
    /// applier the same events leave billing, the impression log, the
    /// pixel journal and the receipt heads exactly as one copy does, and
    /// `serving.merge_conflicts` counts every dropped copy.
    #[test]
    fn a_duplicated_batch_is_billed_once() {
        let (_, events) = replay_scenario();
        let (once, once_out, once_telemetry) = close_one_tick(vec![events.clone()]);
        let (twice, twice_out, twice_telemetry) =
            close_one_tick(vec![events.clone(), events.clone()]);

        assert_eq!(once.billing.impressions_charged(), 4);
        assert_eq!(once.billing.total_charged(), Money::micros(8_000));
        assert_eq!(twice.billing.export_state(), once.billing.export_state());
        assert_eq!(twice.log.all().len(), 4);
        assert_eq!(twice.log.all(), once.log.all());
        assert_eq!(twice.pixels.events().len(), 4);
        assert_eq!(twice.pixels.events(), once.pixels.events());
        let heads = |out: &ServingOutcome| out.ledger.as_ref().expect("ledger").heads();
        assert_eq!(heads(&twice_out), heads(&once_out));
        assert_eq!(twice_out.report.impressions, 4);
        assert_eq!(twice_out.report.pixel_fires, 4);
        let conflicts = |t: &Telemetry| t.metrics().counter("serving.merge_conflicts");
        assert_eq!(conflicts(&once_telemetry), 0);
        assert_eq!(conflicts(&twice_telemetry), events.len() as u64);
    }
}
