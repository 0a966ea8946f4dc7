//! Deterministic observability for the Treads simulation stack: metrics,
//! spans, and a flight recorder.
//!
//! Three layers, all allocation-light and free of global state:
//!
//! - [`metrics`] — named counters and fixed-bucket histograms with
//!   p50/p95/p99 readout. Shards own private registries and the engine
//!   folds them together at tick boundaries in shard-index order, so
//!   merged counter totals and value histograms are **bit-identical
//!   across shard counts**.
//! - [`span`](mod@span) — a scoped stopwatch ([`SpanTimer`]) plus the [`span!`]
//!   macro for timing the engine's per-tick phases (session generation,
//!   auction, delivery, merge, apply) into `*_ns` histograms.
//! - [`flight`] — a bounded ring-buffer journal ([`FlightRecorder`]) of
//!   structured platform events (auction decided, impression billed,
//!   frequency-cap rejection, budget exhaustion, Tread observed) for
//!   post-mortem dumps.
//!
//! The [`Telemetry`] handle bundles all three behind a runtime `enabled`
//! switch and a compile-time `record` feature: with the feature off every
//! recording call is an inlined no-op, so instrumentation points cost
//! nothing in compiled-out builds. Telemetry never draws randomness and
//! never feeds back into simulation state — it observes, it does not
//! perturb.
//!
//! Snapshots render by hand, with no serialization dependency, as JSON
//! ([`Telemetry::snapshot_json`]) or Prometheus text
//! ([`Telemetry::snapshot_prometheus`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flight;
pub mod metrics;
pub mod slo;
pub mod snapshot;
pub mod span;
pub mod trace;

pub use flight::{FlightEvent, FlightKind, FlightRecorder, DEFAULT_FLIGHT_CAPACITY};
pub use metrics::{Histogram, Registry};
pub use slo::{SloTarget, SloTracker};
pub use span::SpanTimer;
pub use trace::{
    traces_to_chrome, traces_to_json, RequestTrace, TraceCollector, TraceConfig, TraceEvent,
    TraceEventKind, TraceId, TraceSpan, DEFAULT_TRACE_CAPACITY, SHED_SEQ,
};

/// One exemplar: a histogram observation annotated with the trace that
/// produced it, so a p95+ bucket can link straight to a retained trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exemplar {
    /// The observed value (same unit as the owning histogram).
    pub value: u64,
    /// The producing request's trace id.
    pub trace: TraceId,
}

/// Exemplars retained per histogram name: the top-K largest observations
/// offered, largest first. Lives on [`Telemetry`] rather than in
/// [`Registry`] — registries are equality-compared across shard counts,
/// and which requests carry the tail is wall-clock-shaped.
#[derive(Debug, Clone, Default)]
pub struct ExemplarStore {
    per: std::collections::BTreeMap<&'static str, Vec<Exemplar>>,
}

/// Exemplars kept per histogram.
const EXEMPLARS_PER_HISTOGRAM: usize = 4;

impl ExemplarStore {
    /// Offers one observation; kept if it ranks in the histogram's top-K.
    pub fn offer(&mut self, name: &'static str, value: u64, trace: TraceId) {
        let slot = self.per.entry(name).or_default();
        slot.push(Exemplar { value, trace });
        slot.sort_by(|a, b| b.value.cmp(&a.value).then(a.trace.cmp(&b.trace)));
        slot.truncate(EXEMPLARS_PER_HISTOGRAM);
    }

    /// The retained exemplars for a histogram, largest first.
    pub fn get(&self, name: &str) -> &[Exemplar] {
        self.per.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// True if no exemplar is retained anywhere.
    pub fn is_empty(&self) -> bool {
        self.per.is_empty()
    }
}

/// The bundled telemetry handle: a metrics [`Registry`], a
/// [`FlightRecorder`], and an on/off switch.
///
/// All recording methods are no-ops when the handle is disabled or the
/// `record` feature is compiled out; read methods always work (and simply
/// see empty state).
#[derive(Debug, Clone)]
pub struct Telemetry {
    enabled: bool,
    metrics: Registry,
    flight: FlightRecorder,
    traces: TraceCollector,
    exemplars: ExemplarStore,
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl Telemetry {
    /// An enabled handle with the default flight capacity.
    pub fn new() -> Self {
        Self::with_flight_capacity(DEFAULT_FLIGHT_CAPACITY)
    }

    /// An enabled handle whose flight recorder retains `capacity` events.
    pub fn with_flight_capacity(capacity: usize) -> Self {
        Self {
            enabled: true,
            metrics: Registry::new(),
            flight: FlightRecorder::with_capacity(capacity),
            traces: TraceCollector::new(TraceConfig::default()),
            exemplars: ExemplarStore::default(),
        }
    }

    /// A handle whose recording methods all no-op. Useful for measuring
    /// instrumentation overhead in the same binary.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            ..Self::new()
        }
    }

    /// True if recording is compiled in *and* this handle is switched on.
    pub fn is_enabled(&self) -> bool {
        cfg!(feature = "record") && self.enabled
    }

    /// The flight recorder's ring capacity.
    pub fn flight_capacity(&self) -> usize {
        self.flight.capacity()
    }

    /// Adds `delta` to the named counter.
    #[inline]
    pub fn count(&mut self, name: &'static str, delta: u64) {
        if self.is_enabled() {
            self.metrics.add(name, delta);
        }
    }

    /// Records a wall-time observation, in nanoseconds.
    #[inline]
    pub fn observe_ns(&mut self, name: &'static str, ns: u64) {
        if self.is_enabled() {
            self.metrics.observe_ns(name, ns);
        }
    }

    /// Records a small count-valued observation.
    #[inline]
    pub fn observe_value(&mut self, name: &'static str, value: u64) {
        if self.is_enabled() {
            self.metrics.observe_value(name, value);
        }
    }

    /// Journals one flight event.
    #[inline]
    pub fn record_event(&mut self, event: FlightEvent) {
        if self.is_enabled() {
            self.flight.record(event);
        }
    }

    /// Appends pre-sorted flight events (the engine sorts each tick's
    /// events by [`FlightEvent::key`] before calling this).
    pub fn append_events(&mut self, events: impl IntoIterator<Item = FlightEvent>) {
        if self.is_enabled() {
            self.flight.append(events);
        }
    }

    /// Starts a span timer bound to this handle's enabled state. Pair with
    /// [`Telemetry::end_span`], or use the [`span!`] macro.
    #[inline]
    pub fn span(&self) -> SpanTimer {
        SpanTimer::start_if(self.is_enabled())
    }

    /// Ends a span timer, recording its elapsed time into the named
    /// wall-time histogram (no-op for inert timers).
    #[inline]
    pub fn end_span(&mut self, name: &'static str, timer: SpanTimer) {
        if timer.is_running() {
            self.observe_ns(name, timer.elapsed_ns());
        }
    }

    /// Folds another metrics registry into this handle's (shard → engine
    /// merge path). Addition commutes, so totals are shard-count-invariant.
    pub fn merge_registry(&mut self, other: &Registry) {
        if self.is_enabled() {
            self.metrics.merge(other);
        }
    }

    /// Folds another handle's metrics, flight journal, and retained
    /// traces into this one. The other handle's trace counters already
    /// live in its registry, so the traces transfer without re-counting.
    pub fn merge(&mut self, other: &Telemetry) {
        if self.is_enabled() {
            self.metrics.merge(&other.metrics);
            self.flight.append(other.flight.events().copied());
            self.traces.absorb(other.traces.clone());
        }
    }

    /// The active trace config. [`TraceConfig::disabled`] whenever this
    /// handle is off or recording is compiled out, so callers can gate
    /// trace construction on `trace_config().enabled` alone.
    pub fn trace_config(&self) -> TraceConfig {
        if self.is_enabled() {
            self.traces.config()
        } else {
            TraceConfig::disabled()
        }
    }

    /// Replaces the trace config (retained traces are kept).
    pub fn set_trace_config(&mut self, config: TraceConfig) {
        self.traces.set_config(config);
    }

    /// Offers one finished trace to the collector, maintaining the
    /// `trace.spans` / `trace.sampled` / `trace.dropped` counters.
    /// Returns `true` when the trace was retained.
    pub fn offer_trace(&mut self, trace: RequestTrace) -> bool {
        if !self.is_enabled() {
            return false;
        }
        let spans = trace.spans.len() as u64;
        if self.traces.offer(trace) {
            self.metrics.add("trace.sampled", 1);
            self.metrics.add("trace.spans", spans);
            true
        } else {
            self.metrics.add("trace.dropped", 1);
            false
        }
    }

    /// The retained traces, in offer order.
    pub fn traces(&self) -> &[RequestTrace] {
        self.traces.retained()
    }

    /// Drains and returns the retained traces.
    pub fn take_traces(&mut self) -> Vec<RequestTrace> {
        self.traces.drain()
    }

    /// Offers a histogram exemplar (an observation + the trace behind it).
    #[inline]
    pub fn exemplar(&mut self, name: &'static str, value: u64, trace: TraceId) {
        if self.is_enabled() {
            self.exemplars.offer(name, value, trace);
        }
    }

    /// The retained exemplars for a histogram, largest first.
    pub fn exemplars(&self, name: &str) -> &[Exemplar] {
        self.exemplars.get(name)
    }

    /// The metrics registry (read-only).
    pub fn metrics(&self) -> &Registry {
        &self.metrics
    }

    /// The flight recorder (read-only).
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// Drains and returns the flight journal, oldest first.
    pub fn take_flight_events(&mut self) -> Vec<FlightEvent> {
        self.flight.drain()
    }

    /// Renders the full snapshot as JSON (see [`snapshot::to_json`]).
    pub fn snapshot_json(&self) -> String {
        snapshot::to_json(self)
    }

    /// Renders counters and histograms as Prometheus text
    /// (see [`snapshot::to_prometheus`]).
    pub fn snapshot_prometheus(&self) -> String {
        snapshot::to_prometheus(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adsim_types::{SimTime, UserId};

    fn tread_event(seq: u64) -> FlightEvent {
        FlightEvent {
            at: SimTime(seq),
            user: UserId(1),
            seq,
            trace: 0,
            kind: FlightKind::TreadObserved { ad: seq },
        }
    }

    #[cfg(feature = "record")]
    #[test]
    fn enabled_handle_records_everything() {
        let mut t = Telemetry::new();
        assert!(t.is_enabled());
        t.count("auction.won", 2);
        t.observe_value("auction.eligible_bids", 5);
        t.record_event(tread_event(0));
        let timer = t.span();
        assert!(timer.is_running());
        t.end_span("phase.auction_ns", timer);

        assert_eq!(t.metrics().counter("auction.won"), 2);
        assert_eq!(
            t.metrics()
                .histogram("auction.eligible_bids")
                .expect("recorded")
                .count(),
            1
        );
        assert!(t.metrics().histogram("phase.auction_ns").is_some());
        assert_eq!(t.flight().len(), 1);
    }

    #[test]
    fn disabled_handle_records_nothing() {
        let mut t = Telemetry::disabled();
        assert!(!t.is_enabled());
        t.count("auction.won", 2);
        t.observe_ns("engine.tick_ns", 1_000);
        t.observe_value("auction.eligible_bids", 5);
        t.record_event(tread_event(0));
        let timer = t.span();
        assert!(!timer.is_running());
        t.end_span("phase.auction_ns", timer);
        assert!(!t.trace_config().enabled);
        assert!(!t.offer_trace(RequestTrace::tail(
            TraceId(1),
            SimTime(0),
            1,
            trace::SHED_SEQ
        )));
        t.exemplar("serving.request_latency_ns", 5, TraceId(1));

        assert!(t.metrics().is_empty());
        assert!(t.flight().is_empty());
        assert!(t.traces().is_empty());
        assert!(t.exemplars("serving.request_latency_ns").is_empty());
    }

    #[cfg(feature = "record")]
    #[test]
    fn merge_folds_metrics_and_flight() {
        let mut a = Telemetry::new();
        a.count("engine.impressions", 1);
        a.record_event(tread_event(0));
        let mut b = Telemetry::new();
        b.count("engine.impressions", 2);
        b.observe_value("auction.eligible_bids", 3);
        b.record_event(tread_event(1));

        a.merge(&b);
        assert_eq!(a.metrics().counter("engine.impressions"), 3);
        assert_eq!(a.flight().len(), 2);

        let mut c = Telemetry::new();
        c.merge_registry(b.metrics());
        assert_eq!(c.metrics().counter("engine.impressions"), 2);
    }

    #[cfg(feature = "record")]
    #[test]
    fn offered_traces_maintain_counters_and_exemplars() {
        let mut t = Telemetry::new();
        t.set_trace_config(TraceConfig::full());
        let mut tr = RequestTrace::new(TraceId(7), SimTime(0), 1, 0, true);
        tr.span("request", None, SimTime(0));
        tr.span("decide", Some(0), SimTime(0));
        assert!(t.offer_trace(tr));
        assert!(!t.offer_trace(RequestTrace::new(TraceId(8), SimTime(0), 2, 0, false)));
        assert_eq!(t.metrics().counter("trace.sampled"), 1);
        assert_eq!(t.metrics().counter("trace.spans"), 2);
        assert_eq!(t.metrics().counter("trace.dropped"), 1);
        assert_eq!(t.traces().len(), 1);

        t.exemplar("serving.request_latency_ns", 50, TraceId(7));
        t.exemplar("serving.request_latency_ns", 99, TraceId(9));
        let ex = t.exemplars("serving.request_latency_ns");
        assert_eq!(ex[0].value, 99);
        assert_eq!(ex[0].trace, TraceId(9));

        let taken = t.take_traces();
        assert_eq!(taken.len(), 1);
        assert!(t.traces().is_empty());
    }

    #[cfg(feature = "record")]
    #[test]
    fn take_flight_events_drains_in_order() {
        let mut t = Telemetry::new();
        t.append_events([tread_event(0), tread_event(1)]);
        let events = t.take_flight_events();
        assert_eq!(events.len(), 2);
        assert!(events[0].key() < events[1].key());
        assert!(t.flight().is_empty());
    }
}
