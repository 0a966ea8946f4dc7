//! The tick-close applier: the serving run's single writer.
//!
//! At every tick boundary the applier collects one [`TickBatch`] per
//! shard, merges their events in the canonical `(at, user, user_seq)`
//! order, and folds them into the platform through
//! [`treads_engine::fold_tick_events`] — the same single-writer step the
//! batch supervisor uses. It then refreezes the budget snapshot, hands it
//! to every blocked worker and acks the front end, so the simulated
//! clock advances as soon as the platform is folded. The tick's
//! bookkeeping — counters, the SLO judgement of its latency window, trace
//! retention — runs after the ack, while the next tick admits requests,
//! and always before the applier reads the next tick's batches. With an
//! enabled telemetry handle the merge and the fold are timed as the batch
//! engine times them (`phase.merge_ns`, `phase.apply_ns`).
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
use treads_engine::{fold_tick_events, merge_batches_lossy, MergeError};
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
    'ticks: loop {
        // Barrier collect: exactly one batch per shard per tick. The
        // channel disconnecting (all workers exited) ends the run.
        let mut batches: Vec<TickBatch> = Vec::with_capacity(shards);
        for _ in 0..shards {
            match batch_rx.recv() {
                Ok(batch) => batches.push(batch),
                Err(_) => break 'ticks,
            }
        }
        // Shard-index order is the canonical per-tick fold order, exactly
        // as in the batch supervisor.
        batches.sort_by_key(|b| b.shard);
        let tick_end = batches.first().map_or(0, |b| b.tick_end);
        debug_assert!(
            batches.iter().all(|b| b.tick_end == tick_end),
            "tick-close barrier collected batches from different ticks"
        );

        // The single-writer step first: merge canonically, fold, refreeze,
        // resume the blocked workers and ack the front end, whose
        // clock-holding thread waits on the ack to open tick t+1.
        // Everything below — per-batch counters, SLO judgement, trace
        // retention — is bookkeeping neither needs, so it runs while tick
        // t+1 admits and decides (the serving twin of the batch engine's
        // pipelined tick). This loop reads tick t+1's batches only after
        // it, so every tick is fully accounted in order.
        let events: Vec<_> = batches
            .iter_mut()
            .map(|b| std::mem::take(&mut b.events))
            .collect();
        let (snapshot, conflicts) = {
            let mut guard = platform.write();
            let p: &mut Platform = &mut guard;
            for batch in &batches {
                p.stats.opportunities += batch.stats.opportunities;
                p.stats.won += batch.stats.won;
                p.stats.lost_to_background += batch.stats.lost_to_background;
                p.stats.unfilled += batch.stats.unfilled;
            }
            // Lossy merge: a duplicate key can only mean a replay bug, but
            // the front end must degrade (first-writer-wins) and keep
            // serving rather than panic. Conflicts are counted, and each
            // leaves an always-retained trace naming the duplicated key.
            let (merged, conflicts) =
                span!(telemetry, "phase.merge_ns", merge_batches_lossy(events));
            let fold = span!(
                telemetry,
                "phase.apply_ns",
                fold_tick_events(
                    p,
                    merged,
                    SimTime(tick_end),
                    telemetry,
                    &mut exhausted,
                    out.ledger.as_mut(),
                )
            );
            out.report.impressions += fold.impressions;
            out.report.pixel_fires += fold.pixel_fires;
            (Arc::new(p.billing.budget_snapshot()), conflicts)
        };
        out.report.ticks += 1;
        for tx in resume_txs {
            let _ = tx.send(snapshot.clone());
        }
        let _ = ack_tx.send(());

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
    use adsim_types::{PixelId, UserId};
    use treads_engine::ShardEvent;
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
}
