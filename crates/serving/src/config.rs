//! Serving-engine parameters.

use std::time::Duration;

use treads_engine::DAY_MS;
use treads_telemetry::{SloTarget, TraceConfig};

/// Parameters of a [`crate::ServingEngine`].
///
/// The simulation-side knobs (`shards`, `tick_ms`, `horizon_ms`, `seed`)
/// mirror [`treads_engine::EngineConfig`] — a serving run is byte-identical
/// to a batch run exactly when these agree and the same opportunity stream
/// is offered. The serving-side knobs (`max_batch`, `max_delay`,
/// `queue_watermark`, …) shape *latency and shedding only*; they can never
/// change a simulation outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingConfig {
    /// Number of shard workers (and threads). Users map to workers by
    /// [`treads_workload::ShardPlan::shard_index`], exactly as in the
    /// batch engine.
    pub shards: usize,
    /// Tick length in simulated milliseconds. Budget snapshots refresh and
    /// shard events fold at tick boundaries; defaults to one day.
    pub tick_ms: u64,
    /// Simulated horizon in milliseconds. Requests at or past the horizon
    /// are rejected ([`crate::RejectReason::AfterHorizon`]); the run closes
    /// `ceil(horizon_ms / tick_ms)` ticks, matching the batch engine.
    pub horizon_ms: u64,
    /// Master seed; every user derives private substreams from it.
    pub seed: u64,
    /// A micro-batch closes as soon as it holds this many requests.
    pub max_batch: usize,
    /// …or as soon as its oldest request has waited this long (wall
    /// clock), whichever comes first.
    pub max_delay: Duration,
    /// Admission watermark: a request whose shard already has this many
    /// requests in flight is shed with a retry-after hint.
    pub queue_watermark: u64,
    /// Base retry-after hint (milliseconds) attached to shed responses;
    /// scales up with overload severity (see
    /// [`crate::AdmissionController`]).
    pub retry_after_ms: u64,
    /// The latency objective evaluated per tick window (breaches count
    /// into `serving.slo_breach`).
    pub slo: SloTarget,
    /// Causal-trace sampling policy. Only effective when the run records
    /// into a live [`treads_telemetry::Telemetry`] handle — with telemetry
    /// disabled no trace is built and this field is ignored. Like every
    /// telemetry knob, it can never change a simulation outcome.
    pub trace: TraceConfig,
    /// Emit a signed delivery receipt for every folded impression (the
    /// serving twin of [`treads_engine::EngineConfig::ledger`]). Receipts
    /// are appended by the applier inside the fold, so chains are
    /// byte-identical to the batch engine's under the same opportunity
    /// stream.
    pub ledger: bool,
}

impl Default for ServingConfig {
    fn default() -> Self {
        Self {
            shards: 1,
            tick_ms: DAY_MS,
            horizon_ms: 7 * DAY_MS,
            seed: 42,
            max_batch: 64,
            max_delay: Duration::from_millis(1),
            queue_watermark: 1024,
            retry_after_ms: 10,
            slo: SloTarget::p99_ms(20),
            trace: TraceConfig::default(),
            ledger: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = ServingConfig::default();
        assert_eq!(c.shards, 1);
        assert_eq!(c.tick_ms, DAY_MS);
        assert_eq!(c.horizon_ms, 7 * DAY_MS);
        assert!(c.max_batch > 0);
        assert!(c.max_delay > Duration::ZERO);
        assert!(c.queue_watermark > 0);
        assert!((c.slo.quantile - 0.99).abs() < 1e-9);
        assert_eq!(c.slo.target_ns, 20_000_000);
        assert!(c.trace.enabled);
        assert_eq!(c.trace.sample_per_mille, 10);
        assert!(c.ledger, "receipt emission is on by default");
    }
}
